package topo

import (
	"strings"
	"testing"

	"conman/internal/core"
)

// sweep builds every family across a parameter/seed sweep. The chaos
// harness and scale suites draw from the same families, so the
// properties asserted here (connectivity, degree bounds, determinism)
// are the contract everything downstream assumes.
func sweep(t *testing.T) map[string]*Wiring {
	t.Helper()
	out := map[string]*Wiring{}
	for _, k := range []int{2, 4, 8} {
		w, err := FatTree(k)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", k, err)
		}
		out["fat-tree/"+w.Param] = w
	}
	for _, n := range []int{3, 8, 64} {
		w, err := Ring(n)
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		out["ring/"+w.Param] = w
	}
	for _, rc := range [][2]int{{3, 3}, {4, 8}} {
		w, err := Torus(rc[0], rc[1])
		if err != nil {
			t.Fatalf("Torus(%dx%d): %v", rc[0], rc[1], err)
		}
		out["torus/"+w.Param] = w
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		w, err := Waxman(48, 0.7, 0.25, seed)
		if err != nil {
			t.Fatalf("Waxman(seed=%d): %v", seed, err)
		}
		out["waxman/"+w.Param] = w
	}
	return out
}

func TestGeneratorsConnected(t *testing.T) {
	for name, w := range sweep(t) {
		if !w.Connected() {
			t.Errorf("%s: generated fabric is partitioned", name)
		}
	}
}

func TestGeneratorsDegreeBounds(t *testing.T) {
	for name, w := range sweep(t) {
		deg := w.Degrees()
		for _, d := range w.Devices {
			got := deg[d.ID]
			if got != len(d.Ports) {
				t.Errorf("%s %s: degree %d but %d allocated ports", name, d.ID, got, len(d.Ports))
			}
			switch w.Family {
			case "ring":
				if got != 2 {
					t.Errorf("%s %s: ring degree = %d, want 2", name, d.ID, got)
				}
			case "torus":
				if got != 4 {
					t.Errorf("%s %s: torus degree = %d, want 4", name, d.ID, got)
				}
			case "fat-tree":
				// Core and aggregation switches have full degree k; edge
				// switches carry k/2 uplinks (their other k/2 ports are
				// customer-facing and not part of the trunk wiring).
				switch {
				case strings.HasPrefix(string(d.ID), "ed"):
					if got*2 != fatTreeK(w) {
						t.Errorf("%s %s: edge degree = %d, want k/2 = %d", name, d.ID, got, fatTreeK(w)/2)
					}
				default:
					if got != fatTreeK(w) {
						t.Errorf("%s %s: degree = %d, want k = %d", name, d.ID, got, fatTreeK(w))
					}
				}
			case "waxman":
				if got < 1 || got >= len(w.Devices) {
					t.Errorf("%s %s: waxman degree %d out of [1, n)", name, d.ID, got)
				}
			}
		}
	}
}

// fatTreeK recovers k from the edge-switch count (k pods of k/2 each).
func fatTreeK(w *Wiring) int {
	for k := 2; ; k += 2 {
		if k*k/2 == len(w.Edges) {
			return k
		}
		if k*k/2 > len(w.Edges) {
			return -1
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	regen := func(name string) *Wiring {
		t.Helper()
		// Rebuild by re-running the same sweep; map iteration order does
		// not matter because generation is side-effect free.
		return sweep(t)[name]
	}
	for name, w := range sweep(t) {
		again := regen(name)
		if again == nil {
			t.Fatalf("%s: missing from second sweep", name)
		}
		if w.Canonical() != again.Canonical() {
			t.Errorf("%s: same parameters produced different wiring", name)
		}
	}
}

func TestWaxmanSeedsDiffer(t *testing.T) {
	a, err := Waxman(48, 0.7, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(48, 0.7, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() == b.Canonical() {
		t.Error("different seeds produced identical Waxman graphs")
	}
}

func TestCrossCorePairsSpanDistinctDevices(t *testing.T) {
	for name, w := range sweep(t) {
		max := len(w.Edges) / 2
		pairs, err := w.CrossCorePairs(max)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[core.DeviceID]bool{}
		for _, p := range pairs {
			if seen[p.A] || seen[p.B] || p.A == p.B {
				t.Errorf("%s: pair %v reuses a device", name, p)
			}
			seen[p.A], seen[p.B] = true, true
			if !w.ConnectedWithout(nil, nil, p.A, p.B) {
				t.Errorf("%s: pair %v not connected", name, p)
			}
		}
		if _, err := w.CrossCorePairs(max + 1); err == nil {
			t.Errorf("%s: CrossCorePairs(%d) should exceed capacity", name, max+1)
		}
	}
}

func TestConnectedWithoutCuts(t *testing.T) {
	w, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Edges[0], w.Edges[4]
	// One cut leaves the other arc; cutting both arcs disconnects.
	one := map[string]bool{w.Wires[0].Name: true}
	if !w.ConnectedWithout(one, nil, a, b) {
		t.Error("single ring cut should not disconnect opposite devices")
	}
	two := map[string]bool{w.Wires[0].Name: true, w.Wires[4].Name: true}
	if w.ConnectedWithout(two, nil, a, b) {
		t.Error("cutting both ring arcs must disconnect opposite devices")
	}
	// A dead intermediate device severs its arc like a wire cut.
	dead := map[core.DeviceID]bool{w.Devices[2].ID: true}
	if !w.ConnectedWithout(nil, dead, a, b) {
		t.Error("one dead transit device should not disconnect a ring")
	}
	dead[w.Devices[6].ID] = true
	if w.ConnectedWithout(nil, dead, a, b) {
		t.Error("dead devices on both arcs must disconnect")
	}
	if w.ConnectedWithout(nil, map[core.DeviceID]bool{a: true}, a, b) {
		t.Error("a dead endpoint can never be connected")
	}
}

func TestGeneratorArgumentValidation(t *testing.T) {
	if _, err := FatTree(3); err == nil {
		t.Error("FatTree(3) should reject odd k")
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) should reject n < 3")
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("Torus(2,5) should reject rows < 3")
	}
	if _, err := Waxman(1, 0.5, 0.2, 1); err == nil {
		t.Error("Waxman(1) should reject n < 2")
	}
	if _, err := Waxman(8, 1.5, 0.2, 1); err == nil {
		t.Error("Waxman alpha > 1 should be rejected")
	}
}

func TestFatTreeShape(t *testing.T) {
	w, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(w.Devices), 20; got != want {
		t.Errorf("fat-tree k=4 devices = %d, want %d", got, want)
	}
	if got, want := len(w.Wires), 32; got != want {
		t.Errorf("fat-tree k=4 wires = %d, want %d", got, want)
	}
	if got, want := len(w.Edges), 8; got != want {
		t.Errorf("fat-tree k=4 edge switches = %d, want %d", got, want)
	}
}

// Degrees returns each device's trunk degree (parallel links counted).
func (w *Wiring) Degrees() map[core.DeviceID]int {
	deg := make(map[core.DeviceID]int, len(w.Devices))
	for _, d := range w.Devices {
		deg[d.ID] = 0
	}
	for _, wi := range w.Wires {
		deg[wi.A.Device]++
		deg[wi.B.Device]++
	}
	return deg
}

// Connected reports whether the whole fabric is one component.
func (w *Wiring) Connected() bool {
	if len(w.Devices) == 0 {
		return true
	}
	idx := w.index()
	adj := make([][]int, len(w.Devices))
	for _, wi := range w.Wires {
		i, j := idx[wi.A.Device], idx[wi.B.Device]
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	seen := make([]bool, len(w.Devices))
	queue := []int{0}
	seen[0] = true
	reached := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				reached++
				queue = append(queue, nb)
			}
		}
	}
	return reached == len(w.Devices)
}
