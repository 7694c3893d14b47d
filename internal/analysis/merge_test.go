package analysis

import (
	"bytes"
	"errors"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// The merge-property suite pins the algebra the distributed coordinator
// (internal/shard) builds on: Merge is associative and commutative with
// the fresh accumulator as identity, merging accumulators folded over a
// split population equals folding the whole, and the serialized form is a
// faithful, byte-stable transport for all of it. Every comparison is on
// rendered table bytes — the same equality the shard determinism goldens
// use — over seeded worlds at several scales and both engines.

// mergeCase is one seeded world scan the properties run over.
type mergeCase struct {
	name   string
	scale  int // population divisor: larger scale = smaller world
	engine scanner.Engine
	week   int
	seed   int64
}

var mergeCases = []mergeCase{
	{"fast-small", 200_000, scanner.EngineFast, 2, 11},
	{"fast-large", 20_000, scanner.EngineFast, 5, 42},
	{"emulated-small", 100_000, scanner.EngineEmulated, 3, 7},
}

// scanCase materialises the case's scan once (properties re-fold slices of
// it into fresh accumulators, which is cheap).
func scanCase(t *testing.T, mc mergeCase) (*websim.World, *scanner.Result) {
	t.Helper()
	p := websim.DefaultProfile()
	p.Scale = mc.scale
	world := websim.Generate(p)
	res, err := scanner.Run(world, scanner.Config{Week: mc.week, Engine: mc.engine, Seed: mc.seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Domains) < 16 {
		t.Fatalf("world too small for split properties: %d domains", len(res.Domains))
	}
	return world, res
}

// accOver folds a slice of the materialised scan into a fresh accumulator.
func accOver(world *websim.World, res *scanner.Result, lo, hi int) *Accumulator {
	a := NewAccumulator(res.Week, res.IPv6, world.ASDB())
	for i := lo; i < hi; i++ {
		a.Add(&res.Domains[i])
	}
	return a
}

// splitBounds cuts [0, n) into k contiguous pieces like shard.Plan.
func splitBounds(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	base, extra := n/k, n%k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// roundTrip clones an accumulator through the wire format.
func roundTrip(t *testing.T, world *websim.World, a *Accumulator) *Accumulator {
	t.Helper()
	c, err := UnmarshalAccumulator(a.Marshal(), world.ASDB())
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	return c
}

func TestMergeProperties(t *testing.T) {
	for _, mc := range mergeCases {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			world, res := scanCase(t, mc)
			n := len(res.Domains)
			golden := renderWeek(accOver(world, res, 0, n))

			t.Run("identity", func(t *testing.T) {
				// empty ⊕ whole == whole == whole ⊕ empty.
				empty := NewAccumulator(res.Week, res.IPv6, world.ASDB())
				if err := empty.Merge(accOver(world, res, 0, n)); err != nil {
					t.Fatal(err)
				}
				if got := renderWeek(empty); got != golden {
					t.Errorf("empty.Merge(whole) diverges from fold-of-whole")
				}
				whole := accOver(world, res, 0, n)
				if err := whole.Merge(NewAccumulator(res.Week, res.IPv6, world.ASDB())); err != nil {
					t.Fatal(err)
				}
				if got := renderWeek(whole); got != golden {
					t.Errorf("whole.Merge(empty) diverges from fold-of-whole")
				}
			})

			t.Run("merge-of-splits", func(t *testing.T) {
				for _, k := range []int{2, 3, 8} {
					bounds := splitBounds(n, k)
					merged := accOver(world, res, bounds[0][0], bounds[0][1])
					for _, b := range bounds[1:] {
						if err := merged.Merge(accOver(world, res, b[0], b[1])); err != nil {
							t.Fatal(err)
						}
					}
					if got := renderWeek(merged); got != golden {
						t.Errorf("merge of %d splits diverges from fold-of-whole", k)
					}
				}
			})

			t.Run("commutativity", func(t *testing.T) {
				bounds := splitBounds(n, 4)
				merged := accOver(world, res, bounds[3][0], bounds[3][1])
				for i := 2; i >= 0; i-- {
					if err := merged.Merge(accOver(world, res, bounds[i][0], bounds[i][1])); err != nil {
						t.Fatal(err)
					}
				}
				if got := renderWeek(merged); got != golden {
					t.Errorf("reverse-order merge diverges from fold-of-whole")
				}
			})

			t.Run("associativity", func(t *testing.T) {
				bounds := splitBounds(n, 3)
				part := func(i int) *Accumulator { return accOver(world, res, bounds[i][0], bounds[i][1]) }
				// (a ⊕ b) ⊕ c
				left := part(0)
				if err := left.Merge(part(1)); err != nil {
					t.Fatal(err)
				}
				if err := left.Merge(part(2)); err != nil {
					t.Fatal(err)
				}
				// a ⊕ (b ⊕ c)
				bc := part(1)
				if err := bc.Merge(part(2)); err != nil {
					t.Fatal(err)
				}
				right := part(0)
				if err := right.Merge(bc); err != nil {
					t.Fatal(err)
				}
				gl, gr := renderWeek(left), renderWeek(right)
				if gl != gr {
					t.Errorf("(a⊕b)⊕c and a⊕(b⊕c) render differently")
				}
				if gl != golden {
					t.Errorf("associative merges diverge from fold-of-whole")
				}
			})

			t.Run("serialized", func(t *testing.T) {
				// Every part travels through the wire format, as a real
				// worker exchange would carry it.
				bounds := splitBounds(n, 4)
				merged := roundTrip(t, world, accOver(world, res, bounds[0][0], bounds[0][1]))
				for _, b := range bounds[1:] {
					if err := merged.Merge(roundTrip(t, world, accOver(world, res, b[0], b[1]))); err != nil {
						t.Fatal(err)
					}
				}
				if got := renderWeek(merged); got != golden {
					t.Errorf("serialized merge diverges from fold-of-whole")
				}
			})

			t.Run("marshal-stability", func(t *testing.T) {
				a := accOver(world, res, 0, n)
				b1 := a.Marshal()
				b2 := roundTrip(t, world, a).Marshal()
				if !bytes.Equal(b1, b2) {
					t.Errorf("Marshal→Unmarshal→Marshal is not byte-stable (%d vs %d bytes)", len(b1), len(b2))
				}
			})
		})
	}
}

// TestCampaignMerge checks the campaign-level laws: longitudinal and
// accuracy output of merged shard campaigns (each scanning a population
// slice across every week) equals the single-campaign fold, including
// through the serialized campaign form.
func TestCampaignMerge(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 100_000
	world := websim.Generate(p)
	weeks := []int{1, 2, 3}
	results := make([]*scanner.Result, 0, len(weeks))
	for _, wk := range weeks {
		r, err := scanner.Run(world, scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 5 + int64(wk), Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	n := len(results[0].Domains)

	campOver := func(lo, hi int) *CampaignAccumulator {
		c := NewCampaignAccumulator()
		for _, r := range results {
			acc := c.StartWeek(r.Week, r.IPv6, world.ASDB())
			for i := lo; i < hi; i++ {
				acc.Add(&r.Domains[i])
			}
		}
		return c
	}
	renderCampaign := func(c *CampaignAccumulator) string {
		out := RenderLongitudinal(c.Longitudinal()).String()
		out += c.RenderAccuracy(3)
		out += c.RenderAccuracy(4)
		for _, a := range c.Weeks() {
			out += renderWeek(a)
		}
		return out
	}

	golden := renderCampaign(campOver(0, n))
	for _, serialized := range []bool{false, true} {
		name := "direct"
		if serialized {
			name = "serialized"
		}
		t.Run(name, func(t *testing.T) {
			bounds := splitBounds(n, 4)
			parts := make([]*CampaignAccumulator, 0, len(bounds))
			for _, b := range bounds {
				c := campOver(b[0], b[1])
				if serialized {
					rt, err := UnmarshalCampaign(c.Marshal(), world.ASDB())
					if err != nil {
						t.Fatalf("campaign round-trip: %v", err)
					}
					c = rt
				}
				parts = append(parts, c)
			}
			merged := parts[0]
			for _, c := range parts[1:] {
				if err := merged.Merge(c); err != nil {
					t.Fatal(err)
				}
			}
			if got := renderCampaign(merged); got != golden {
				t.Errorf("merged shard campaigns diverge from the single-campaign fold")
			}
		})
	}

	t.Run("week-subset-merge", func(t *testing.T) {
		// Campaigns that each scanned different week subsets merge into
		// the full campaign: weeks pair by number, not arrival order.
		a := NewCampaignAccumulator()
		for _, r := range results[:1] {
			acc := a.StartWeek(r.Week, r.IPv6, world.ASDB())
			for i := range r.Domains {
				acc.Add(&r.Domains[i])
			}
		}
		b := NewCampaignAccumulator()
		for _, r := range results[1:] {
			acc := b.StartWeek(r.Week, r.IPv6, world.ASDB())
			for i := range r.Domains {
				acc.Add(&r.Domains[i])
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if got := renderCampaign(a); got != golden {
			t.Errorf("week-subset merge diverges from the single-campaign fold")
		}
	})

	t.Run("campaign-marshal-stability", func(t *testing.T) {
		c := campOver(0, n)
		b1 := c.Marshal()
		rt, err := UnmarshalCampaign(b1, world.ASDB())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, rt.Marshal()) {
			t.Errorf("campaign Marshal→Unmarshal→Marshal is not byte-stable")
		}
	})
}

// TestStartWeekOutOfOrder is the regression test for the week-indexing
// fix: StartWeek used to append in call order and Longitudinal counted
// calls, so out-of-order weeks silently misaligned the Fig. 2 table.
func TestStartWeekOutOfOrder(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 200_000
	world := websim.Generate(p)
	weeks := []int{1, 2, 3}
	byWeek := map[int]*scanner.Result{}
	for _, wk := range weeks {
		r, err := scanner.Run(world, scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 9 + int64(wk), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		byWeek[wk] = r
	}
	feed := func(order []int) *CampaignAccumulator {
		c := NewCampaignAccumulator()
		for _, wk := range order {
			r := byWeek[wk]
			acc := c.StartWeek(wk, r.IPv6, world.ASDB())
			for i := range r.Domains {
				acc.Add(&r.Domains[i])
			}
		}
		return c
	}
	inOrder := feed([]int{1, 2, 3})
	golden := RenderLongitudinal(inOrder.Longitudinal()).String()
	for _, order := range [][]int{{3, 1, 2}, {2, 3, 1}, {3, 2, 1}} {
		c := feed(order)
		if got := RenderLongitudinal(c.Longitudinal()).String(); got != golden {
			t.Errorf("StartWeek order %v changes the longitudinal table:\n--- in order ---\n%s\n--- %v ---\n%s", order, golden, order, got)
		}
		ws := c.Weeks()
		for i := 1; i < len(ws); i++ {
			if ws[i-1].Week >= ws[i].Week {
				t.Fatalf("Weeks() not sorted after order %v: %d before %d", order, ws[i-1].Week, ws[i].Week)
			}
		}
	}
	// Restarting an existing week returns its accumulator instead of
	// forking a misaligned sibling.
	c := feed([]int{1, 2})
	if a, b := c.StartWeek(2, false, world.ASDB()), c.findWeek(2, false); a != b {
		t.Errorf("StartWeek(2) did not return the existing week accumulator")
	}
}

// TestMergeMismatch pins the structured error for misaligned merges.
func TestMergeMismatch(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 500_000
	world := websim.Generate(p)
	a := NewAccumulator(1, false, world.ASDB())
	var me *MergeError
	if err := a.Merge(NewAccumulator(2, false, world.ASDB())); !errors.As(err, &me) || me.Field != "week" {
		t.Errorf("week-mismatch merge returned %v, want *MergeError{Field: week}", err)
	}
	if err := a.Merge(NewAccumulator(1, true, world.ASDB())); !errors.As(err, &me) || me.Field != "ipv6" {
		t.Errorf("ipv6-mismatch merge returned %v, want *MergeError{Field: ipv6}", err)
	}
	if err := a.Merge(NewAccumulator(1, false, world.ASDB())); err != nil {
		t.Errorf("aligned merge returned %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge returned %v", err)
	}
}
