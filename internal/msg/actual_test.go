package msg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"conman/internal/core"
)

// Strings that exercise every escape encoding/json makes.
var trickyStrings = []string{
	"", "P0", "eth0", "<IP,R003,ips>", "a&b", `quote"back\slash`,
	"tab\tnew\nline\rret", "\x00\x01\x1f\x7f", "\b\f", "caf\u00e9 \u2028\u2029",
	"bad\xffutf8\xc3", "10.0.1.0/24", "\U0001F600",
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 123456789, 1e20, 1e21, 1.5e22,
	1e-6, 9.99e-7, 1e-9, -2.5e-8, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// fill sets every exported field reachable from v to a seeded value, so a
// field added to the showActual types later is exercised too.
func fill(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(trickyStrings[rng.Intn(len(trickyStrings))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(rng.Int63n(1<<20) - 1<<19)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(trickyFloats[rng.Intn(len(trickyFloats))])
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(rng, v.Field(i), depth+1)
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 && depth < 6 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem(), depth+1)
		}
	case reflect.Slice:
		switch k := rng.Intn(4); {
		case k == 0 || depth >= 6: // nil
		case k == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(3)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i), depth+1)
			}
		}
	case reflect.Map:
		switch k := rng.Intn(4); {
		case k == 0 || depth >= 6: // nil
		case k == 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 1+rng.Intn(4); i++ {
				key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(rng, key, depth+1)
				fill(rng, val, depth+1)
				v.SetMapIndex(key, val)
			}
		}
	}
}

// TestAppendModulesMatchesEncodingJSON holds the hand-written showActual
// encoder to encoding/json byte for byte, over seeded values that set
// every field of the showActual types, strings that need escaping and
// floats on both sides of the exponent-format thresholds.
func TestAppendModulesMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var states []core.ModuleState
		fill(rng, reflect.ValueOf(&states).Elem(), 0)
		want, wantErr := json.Marshal(states)
		got, err := appendModules(nil, states)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("case %d: error %v, encoding/json's %v", i, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestEncodeShowActual(t *testing.T) {
	states := []core.ModuleState{{
		Ref:      core.Ref(core.NameIPv4, "A", "g"),
		Pipes:    []core.PipeState{{ID: "P1", End: core.EndDown, Status: core.PipeUp, RxPkts: 3}},
		LowLevel: map[string]string{"peer-addr:<IP,B,h>": "10.0.0.2"},
	}}
	modules, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(modules)
	digest := hex.EncodeToString(sum[:])

	for _, ifDigest := range []string{"", "stale"} {
		body, err := EncodeShowActual(states, ifDigest)
		if err != nil {
			t.Fatal(err)
		}
		var raw struct {
			Modules json.RawMessage `json:"modules"`
		}
		var resp ShowActualResp
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Modules, modules) || resp.Digest != digest || resp.Unchanged {
			t.Errorf("IfDigest %q: body %s, want modules %s and digest %s", ifDigest, body, modules, digest)
		}
	}
	body, err := EncodeShowActual(states, digest)
	if err != nil {
		t.Fatal(err)
	}
	var resp ShowActualResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Unchanged || resp.Digest != digest || resp.Modules != nil {
		t.Errorf("IfDigest matching: body %s, want unchanged with digest %s and no modules", body, digest)
	}
}
