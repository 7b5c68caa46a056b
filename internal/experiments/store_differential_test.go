package experiments

// Differential check of the intent store's two entry points into its
// diff (ROADMAP 4a): the delta pass over pending work and the full
// rematch — against cached observations after a compile-input change,
// and against fresh ones after InvalidateObservations — must describe
// the same network. The lite diamond keeps four devices while the
// intent count moves, so every step lands on unions that are already
// populated and bound.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conman/internal/nm"
)

// sortedPlanLines is planLines in sorted order: the delta pass emits
// work in pending order and the rematch in union order, so the two are
// compared as sets of "device: command" lines (wire ids included).
func sortedPlanLines(t *testing.T, plan *nm.Plan) string {
	t.Helper()
	lines := planLines(t, plan.Deletes, plan.Creates)
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// liteChurn applies n random submit/withdraw mutations to the store,
// keeping live in step, and leaves at least one intent registered. With
// remerge set the mix also re-merges registered intents out of
// registration order: an update moves customer j between port j and its
// spare port k+j (the testbed has 2k), and now and then the update is
// first one that cannot compile — the pass fails, everything dirty behind
// it waits — and is repaired afterwards.
func liteChurn(t *testing.T, tb *Testbed, rng *rand.Rand, live map[int]bool, k, n int, remerge bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		j := 1 + rng.Intn(k)
		var err error
		switch {
		case !live[j]:
			err = tb.NM.Submit(LiteIntent(j))
			live[j] = true
		case remerge && rng.Intn(3) == 0:
			if rng.Intn(4) == 0 {
				bad := LiteIntent(j)
				bad.Prefer = "no such flavour"
				if err := tb.NM.Update(bad); err != nil {
					t.Fatal(err)
				}
				if _, err := tb.NM.PlanStore(); err == nil {
					t.Fatalf("a store holding %+v planned without error", bad)
				}
			}
			err = tb.NM.Update(liteIntentOn(j, j+k*rng.Intn(2)))
		case len(live) > 1:
			err = tb.NM.Withdraw(LiteIntent(j).Name)
			delete(live, j)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// settle reconciles until a pass sends nothing (a create that answered
// Pending costs one confirming observe) and returns that empty plan.
func settle(t *testing.T, tb *Testbed) *nm.Plan {
	t.Helper()
	for i := 0; i < 4; i++ {
		plan, err := tb.NM.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Empty() {
			return plan
		}
	}
	t.Fatal("store did not converge in 4 passes")
	return nil
}

// threePlans computes the delta plan, then the full rematch against
// cached observations (a SetDomain of a name no goal uses moves the
// compile generation), then the full rematch against fresh ones. Each
// supersedes — drops — the one before.
//
// The two full plans come from a store rebuilt from scratch, in
// registration order; the delta plan comes from one that got there by
// churn, re-merging in whatever order updates and failed passes left.
// Their per-intent views must nevertheless agree line for line — order,
// paths, exclusive and shared tallies — and follow Registered().
func threePlans(t *testing.T, tb *Testbed, tag string) (delta, cached, fresh *nm.Plan) {
	t.Helper()
	var err error
	if delta, err = tb.NM.PlanStore(); err != nil {
		t.Fatal(err)
	}
	tb.NM.SetDomain("unused-"+tag, "192.0.2.0/24")
	if cached, err = tb.NM.PlanStore(); err != nil {
		t.Fatal(err)
	}
	if !cached.Stats.FullRebuild || cached.Stats.Observed != 0 {
		t.Fatalf("%s: cached rematch stats %+v, want a full rebuild with no observes", tag, cached.Stats)
	}
	tb.NM.InvalidateObservations()
	if fresh, err = tb.NM.PlanStore(); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Observed == 0 {
		t.Fatalf("%s: fresh rematch observed nothing", tag)
	}
	var registered []string
	for _, in := range tb.NM.Registered() {
		registered = append(registered, in.Name)
	}
	want := viewLines(cached)
	for name, p := range map[string]*nm.Plan{"delta": delta, "fresh full": fresh} {
		if got := viewLines(p); got != want {
			t.Fatalf("%s: %s plan's views differ from the rebuilt store's:\n%s\n--- rebuilt ---\n%s", tag, name, got, want)
		}
	}
	var viewed []string
	for _, v := range delta.Views {
		viewed = append(viewed, v.Intent.Name)
	}
	if strings.Join(viewed, " ") != strings.Join(registered, " ") {
		t.Fatalf("%s: views are ordered %v, the store registers %v", tag, viewed, registered)
	}
	return delta, cached, fresh
}

// viewLines is the per-intent half of a rendered store plan.
func viewLines(plan *nm.Plan) string {
	var lines []string
	for _, line := range strings.Split(plan.Render(), "\n") {
		if strings.HasPrefix(line, "  intent ") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

func TestFullRematchAgreesWithDelta(t *testing.T) {
	// Converged: after any mix of submits, withdrawals, dropped dry runs
	// and reconciles, all three plans are empty and count the same
	// components in place.
	t.Run("converged", func(t *testing.T) {
		const k, steps = 40, 120
		for seed := int64(1); seed <= 8; seed++ {
			tb, err := BuildDiamondLite(2 * k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			live := map[int]bool{}
			liteChurn(t, tb, rng, live, k, 3, true)
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(10); {
				case r < 6:
					liteChurn(t, tb, rng, live, k, 1, true)
				case r < 8:
					if _, err := tb.NM.PlanStore(); err != nil {
						t.Fatal(err)
					}
				default:
					settle(t, tb)
					tag := fmt.Sprintf("seed %d step %d", seed, step)
					delta, cached, fresh := threePlans(t, tb, tag)
					for name, p := range map[string]*nm.Plan{"delta": delta, "cached full": cached, "fresh full": fresh} {
						if !p.Empty() {
							t.Fatalf("%s: %s re-plan of a converged store is not empty:\n%s", tag, name, p.Render())
						}
						if p.InPlace != delta.InPlace {
							t.Errorf("%s: %s plan has %d in place, delta %d", tag, name, p.InPlace, delta.InPlace)
						}
					}
				}
			}
		}
	})
	// Pending: with un-applied churn queued, the three plans carry the
	// same commands down to the wire ids, and applying the last converges.
	t.Run("pending", func(t *testing.T) {
		const k, rounds = 30, 6
		for seed := int64(1); seed <= 10; seed++ {
			tb, err := BuildDiamondLite(2 * k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			live := map[int]bool{}
			for round := 0; round < rounds; round++ {
				// No re-merges until the trunk is installed: a component's
				// [shared: ...] annotation lists its owners in merge order, so
				// on a create it would differ from the rebuilt store's by the
				// order alone.
				liteChurn(t, tb, rng, live, k, 1+rng.Intn(8), round > 0)
				if rng.Intn(2) == 0 {
					// A dropped dry run first: the delta plan below then
					// re-emits work it already handed wire ids to.
					if _, err := tb.NM.PlanStore(); err != nil {
						t.Fatal(err)
					}
				}
				tag := fmt.Sprintf("seed %d round %d", seed, round)
				delta, cached, fresh := threePlans(t, tb, tag)
				want := sortedPlanLines(t, delta)
				for name, p := range map[string]*nm.Plan{"cached full": cached, "fresh full": fresh} {
					if got := sortedPlanLines(t, p); got != want {
						t.Fatalf("%s: %s plan differs from the delta plan:\n--- delta ---\n%s\n--- %s ---\n%s", tag, name, want, name, got)
					}
					if p.InPlace != delta.InPlace {
						t.Errorf("%s: %s plan has %d in place, delta %d", tag, name, p.InPlace, delta.InPlace)
					}
				}
				if err := tb.NM.Apply(fresh); err != nil {
					t.Fatal(err)
				}
				settle(t, tb)
			}
		}
	})
}
