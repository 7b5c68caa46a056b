package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestModuleRefString(t *testing.T) {
	cases := []struct {
		ref  ModuleRef
		want string
	}{
		{Ref(NameIPv4, "A", "g"), "<IP,A,g>"},
		{Ref(NameGRE, "B", "b'"), "<GRE,B,b'>"},
		{Ref(NameETH, "C", "f"), "<ETH,C,f>"},
	}
	for _, c := range cases {
		if got := c.ref.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.ref, got, c.want)
		}
		back, err := ParseModuleRef(c.want)
		if err != nil {
			t.Fatalf("parse %q: %v", c.want, err)
		}
		if back != c.ref {
			t.Errorf("round trip %q -> %+v, want %+v", c.want, back, c.ref)
		}
	}
}

func TestParseModuleRefErrors(t *testing.T) {
	for _, bad := range []string{"", "IP,A,g", "<IP,A>", "<a,b,c,d>"} {
		if _, err := ParseModuleRef(bad); err == nil {
			t.Errorf("ParseModuleRef(%q): want error", bad)
		}
	}
}

func TestQuickModuleRefRoundTrip(t *testing.T) {
	f := func(dev, mod string) bool {
		for _, s := range []string{dev, mod} {
			for _, r := range s {
				if r == ',' || r == '<' || r == '>' || r == '\n' {
					return true // skip separators; identifiers exclude them
				}
			}
			if s == "" {
				return true
			}
		}
		ref := Ref(NameGRE, DeviceID(dev), ModuleID(mod))
		back, err := ParseModuleRef(ref.String())
		return err == nil && back == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchModeEffects(t *testing.T) {
	cases := []struct {
		mode SwitchMode
		want HeaderEffect
	}{
		{SwUpDown, EffectPush},
		{SwUpPhy, EffectPush},
		{SwDownPhy, EffectPush},
		{SwDownUp, EffectPop},
		{SwPhyUp, EffectPop},
		{SwPhyDown, EffectPop},
		{SwDownDown, EffectProcess},
		{SwUpUp, EffectProcess},
		{SwPhyPhy, EffectProcess},
	}
	for _, c := range cases {
		if got := c.mode.Effect(); got != c.want {
			t.Errorf("%s effect = %s, want %s", c.mode, got, c.want)
		}
	}
}

func TestSwitchModeString(t *testing.T) {
	if s := SwDownUp.String(); s != "[down => up]" {
		t.Errorf("got %q", s)
	}
	if s := SwPhyPhy.String(); s != "[phy => phy]" {
		t.Errorf("got %q", s)
	}
}

func TestMetricParseRoundTrip(t *testing.T) {
	for m := MetricDelay; m <= MetricOrdering; m++ {
		back, err := ParseMetric(m.String())
		if err != nil || back != m {
			t.Errorf("metric %v round trip: %v %v", m, back, err)
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Error("want error for unknown metric")
	}
}

func TestTradeoffKeyAndString(t *testing.T) {
	to := Tradeoff{
		Give:  []Metric{MetricJitter, MetricDelay},
		Get:   []Metric{MetricOrdering},
		Scope: EndUp,
	}
	if got := to.String(); got != "{[jitter, delay] vs [ordering] | up-pipe}" {
		t.Errorf("String = %q", got)
	}
	if got := to.Key(); got != "jitter, delay|ordering|up" {
		t.Errorf("Key = %q", got)
	}
}

func TestPipeSpecCanConnect(t *testing.T) {
	p := PipeSpec{Connectable: []ModuleName{NameIPv4, NameGRE}}
	if !p.CanConnect(NameIPv4) || !p.CanConnect(NameGRE) || p.CanConnect(NameETH) {
		t.Error("CanConnect wrong")
	}
}

// TestAbstractionClone is a property test over every field reachable
// from Abstraction: fill each with a non-zero value, clone, overwrite
// everything the clone reaches through a slice, map or pointer, and
// require the original to be untouched. A reference field added to
// Abstraction (or to any struct inside it) without a matching Clone
// edit fails here with no test edit; a field of a kind the walk does
// not know (interface, chan, func) fails it too, until the walk learns
// that kind.
func TestAbstractionClone(t *testing.T) {
	if err := checkClone(Abstraction.Clone); err != nil {
		t.Error(err)
	}
	// Negative control: the historical bug, a Clone that copies
	// Switch.StateDependency's pointer instead of its target, must be
	// caught, or the property proves nothing.
	shallow := func(a Abstraction) Abstraction {
		b := a.Clone()
		b.Switch.StateDependency = a.Switch.StateDependency
		return b
	}
	if checkClone(shallow) == nil {
		t.Error("property test missed a shallow Switch.StateDependency copy")
	}
}

// checkClone reports how clone fails to deep-copy a fully filled
// Abstraction: a lost field, or state the copy shares with the
// original.
func checkClone(clone func(Abstraction) Abstraction) error {
	var orig, want Abstraction
	fill(reflect.ValueOf(&orig).Elem(), 1)
	fill(reflect.ValueOf(&want).Elem(), 1)
	c := clone(orig)
	if d := differingFields(c, want); d != nil {
		return fmt.Errorf("clone lost fields %v of the original", d)
	}
	scribble(reflect.ValueOf(&c).Elem(), false)
	if d := differingFields(orig, want); d != nil {
		return fmt.Errorf("writing through the clone changed the original's %v", d)
	}
	return nil
}

// differingFields names the top-level fields where a and b differ.
func differingFields(a, b Abstraction) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// fill sets v to a value derived from seed in which every slice has
// one element, every map one entry and every pointer a fresh target,
// all filled recursively. Distinct seeds give distinct leaves.
func fill(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed)
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), seed)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(s.Index(0), seed)
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(filled(v.Type().Key(), seed), filled(v.Type().Elem(), seed))
		v.Set(m)
	case reflect.String:
		v.SetString(fmt.Sprint("s", seed))
	case reflect.Bool:
		v.SetBool(seed%2 == 1)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		v.SetUint(uint64(seed))
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(int64(seed))
	default:
		panic(fmt.Sprintf("fill: %s has kind %s; teach fill and scribble about it", v.Type(), v.Kind()))
	}
}

func filled(t reflect.Type, seed int) reflect.Value {
	v := reflect.New(t).Elem()
	fill(v, seed)
	return v
}

// scribble overwrites, in place, every value v reaches through a
// reference: slice elements, map entries (plus one new entry) and
// pointer targets, recursing into the references they hold rather than
// replacing them, so sharing at any depth shows up in the original.
// through says whether v itself was reached through a reference.
func scribble(v reflect.Value, through bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i), through)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem(), true)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i), true)
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e, true)
			v.SetMapIndex(k, e)
		}
		v.SetMapIndex(filled(v.Type().Key(), 2), filled(v.Type().Elem(), 2))
	default:
		if through {
			fill(v, 2)
		}
	}
}

func TestAbstractionJSONRoundTrip(t *testing.T) {
	a := Abstraction{
		Ref:      Ref(NameIPv4, "A", "g"),
		Up:       PipeSpec{Connectable: []ModuleName{NameIPv4, NameGRE}},
		Down:     PipeSpec{Connectable: []ModuleName{NameETH}},
		Peerable: []ModuleName{NameIPv4},
		Switch: SwitchSpec{
			Modes: []SwitchMode{SwDownUp, SwDownDown}, StateSource: StateLocal,
		},
		Attributes: map[string]string{"address-domain": "C1"},
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Abstraction
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ref != a.Ref || len(back.Switch.Modes) != 2 ||
		back.Attributes["address-domain"] != "C1" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestSwitchSpecSupports(t *testing.T) {
	s := SwitchSpec{Modes: []SwitchMode{SwDownUp, SwUpDown}}
	if !s.Supports(SwDownUp) || s.Supports(SwPhyPhy) {
		t.Error("Supports wrong")
	}
	if got := s.ModesString(); got != "[down => up],[up => down]" {
		t.Errorf("ModesString = %q", got)
	}
}

func TestFilterSpecCanFilter(t *testing.T) {
	var f FilterSpec
	if f.CanFilter() {
		t.Error("empty spec filters")
	}
	f.Classifiers = []FilterClassifier{FilterByModule}
	if !f.CanFilter() {
		t.Error("spec with classifiers does not filter")
	}
}

func TestSecuritySpecOffers(t *testing.T) {
	if (SecuritySpec{}).Offers() {
		t.Error("empty security offers")
	}
	if !(SecuritySpec{Integrity: true}).Offers() {
		t.Error("integrity not offered")
	}
}

func TestCanPeer(t *testing.T) {
	a := Abstraction{Peerable: []ModuleName{NameGRE}}
	if !a.CanPeer(NameGRE) || a.CanPeer(NameIPv4) {
		t.Error("CanPeer wrong")
	}
}

func TestPrimitivesTableI(t *testing.T) {
	ps := Primitives()
	want := []Primitive{
		PrimShowPotential, PrimShowActual, PrimCreate,
		PrimDelete, PrimConveyMessage, PrimListFieldsAndValues,
	}
	if len(ps) != len(want) {
		t.Fatalf("got %d primitives", len(ps))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("primitive %d = %s, want %s", i, ps[i], want[i])
		}
	}
}

func TestEnumStrings(t *testing.T) {
	// Exercising all String methods keeps renders stable.
	for _, s := range []string{
		EndUp.String(), EndDown.String(), EndPhy.String(),
		EffectPush.String(), EffectPop.String(), EffectProcess.String(),
		DepTradeoff.String(), DepExternalState.String(), DepControlModule.String(),
		FilterByModule.String(), FilterByDevice.String(), FilterByPipe.String(), FilterByModuleType.String(),
		StateLocal.String(), StateExternal.String(),
		KindData.String(), KindControl.String(), KindApplication.String(),
		PipeCreating.String(), PipeUp.String(), PipeDown.String(),
		ComponentPipe.String(), ComponentSwitchRule.String(), ComponentFilterRule.String(), ComponentPerfState.String(),
		ActionDrop.String(), ActionAllow.String(),
	} {
		if s == "" {
			t.Error("empty enum string")
		}
	}
	if NameIPv4.Display() != "IP" || NameGRE.Display() != "GRE" {
		t.Error("Display wrong")
	}
}

func TestModuleStateSortedLowLevel(t *testing.T) {
	st := ModuleState{LowLevel: map[string]string{"b": "2", "a": "1", "c": "3"}}
	keys := st.SortedLowLevel()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
}

func TestClassifierString(t *testing.T) {
	if got := (Classifier{Kind: "tagged"}).String(); got != "Tagged" {
		t.Errorf("got %q", got)
	}
}

// Primitives lists all primitives in Table I order.
func Primitives() []Primitive {
	return []Primitive{
		PrimShowPotential, PrimShowActual, PrimCreate,
		PrimDelete, PrimConveyMessage, PrimListFieldsAndValues,
	}
}
