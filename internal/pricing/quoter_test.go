package pricing

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"crossmatch/internal/geo"
)

// randHistory builds a history of n values drawn from rng in (0, cap].
func randHistory(tb testing.TB, rng *rand.Rand, n int, cap float64) *History {
	tb.Helper()
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Nextafter(0, 1) + rng.Float64()*cap
		if rng.Intn(3) == 0 && i > 0 {
			vs[i] = vs[rng.Intn(i)] // force duplicates
		}
	}
	h, err := NewHistory(vs)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// FuzzAcceptProbTableEquivalence is the guard AcceptProbTable's contract
// names: for every history and payment, the CDF-table lookup must return
// the exact bits the linear Definition 3.1 scan returns.
func FuzzAcceptProbTableEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), 0.5)
	f.Add(int64(42), uint8(0), 1.0)
	f.Add(int64(7), uint8(32), -3.0)
	f.Add(int64(-9), uint8(64), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, payment float64) {
		if math.IsNaN(payment) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		h := randHistory(t, rng, int(n), 100)
		exact := h.AcceptProb(payment)
		table := h.AcceptProbTable(payment)
		if math.Float64bits(exact) != math.Float64bits(table) {
			t.Fatalf("AcceptProb(%v) = %v but table lookup = %v (values %v)",
				payment, exact, table, h.Values())
		}
		// Probe the exact breakpoints and their neighbourhoods too: the
		// boundary payments are where a search off by one shows up.
		for _, v := range h.Values() {
			for _, p := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
				if e, tb := h.AcceptProb(p), h.AcceptProbTable(p); math.Float64bits(e) != math.Float64bits(tb) {
					t.Fatalf("AcceptProb(%v) = %v but table lookup = %v", p, e, tb)
				}
			}
		}
	})
}

// TestRecordRebuildsTable checks the table tracks post-construction
// history growth.
func TestRecordRebuildsTable(t *testing.T) {
	h := MustHistory([]float64{10, 20})
	if err := h.Record(15); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{5, 10, 14, 15, 16, 20, 25} {
		if e, tb := h.AcceptProb(p), h.AcceptProbTable(p); e != tb {
			t.Fatalf("after Record: AcceptProb(%v) = %v, table = %v", p, e, tb)
		}
	}
}

// TestQuoterScanTableParity drives both TableQuoter paths over random
// groups and asserts bit-identical quotes: the CDF tables are a pure
// speedup, never a behaviour change.
func TestQuoterScanTableParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	table := NewQuoter(DefaultMonteCarlo)
	scan := NewQuoter(DefaultMonteCarlo)
	scan.Scan = true
	st, ss := NewScratch(), NewScratch()
	for trial := 0; trial < 200; trial++ {
		group := make([]*History, 1+rng.Intn(6))
		for i := range group {
			group[i] = randHistory(t, rng, rng.Intn(20), 50)
		}
		value := math.Nextafter(0, 1) + rng.Float64()*60

		qt, et := table.MaxExpectedRevenue(value, group, st)
		qs, es := scan.MaxExpectedRevenue(value, group, ss)
		if (et == nil) != (es == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, et, es)
		}
		if math.Float64bits(qt.Payment) != math.Float64bits(qs.Payment) ||
			math.Float64bits(qt.ExpectedRev) != math.Float64bits(qs.ExpectedRev) {
			t.Fatalf("trial %d: MaxExpectedRevenue diverged: table %+v vs scan %+v", trial, qt, qs)
		}

		u := 1 - rng.Float64()
		tt, _ := table.ThresholdQuote(value, group, u, st)
		ts, _ := scan.ThresholdQuote(value, group, u, ss)
		if math.Float64bits(tt.Payment) != math.Float64bits(ts.Payment) ||
			math.Float64bits(tt.ExpectedRev) != math.Float64bits(ts.ExpectedRev) {
			t.Fatalf("trial %d: ThresholdQuote diverged: table %+v vs scan %+v", trial, tt, ts)
		}

		seed := rng.Int63()
		mt, et := table.MinOuterPayment(value, group, rand.New(rand.NewSource(seed)), st)
		ms, es := scan.MinOuterPayment(value, group, rand.New(rand.NewSource(seed)), ss)
		if et != nil || es != nil {
			t.Fatalf("trial %d: MinOuterPayment errors %v / %v", trial, et, es)
		}
		if math.Float64bits(mt) != math.Float64bits(ms) {
			t.Fatalf("trial %d: MinOuterPayment diverged: table %v vs scan %v", trial, mt, ms)
		}
	}
	// The Monte-Carlo payment cache serves both paths (it memoizes
	// whatever prob() computes, so it is bit-safe either way); both
	// quoters should therefore report hits.
	if table.Stats().TableHits == 0 {
		t.Error("table path recorded no payment-cache hits over 200 trials")
	}
	if scan.Stats().TableHits == 0 {
		t.Error("scan path recorded no payment-cache hits over 200 trials")
	}
}

// TestQuoterMatchesLegacyEntryPoints pins the shim contract: the
// package-level functions and the quoter produce identical results.
func TestQuoterMatchesLegacyEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	group := []*History{
		randHistory(t, rng, 12, 40),
		randHistory(t, rng, 0, 40),
		randHistory(t, rng, 5, 40),
	}
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()

	lq, lerr := MaxExpectedRevenue(30, group)
	nq, nerr := q.MaxExpectedRevenue(30, group, s)
	if (lerr == nil) != (nerr == nil) || lq != nq {
		t.Fatalf("MaxExpectedRevenue: legacy %+v (%v) vs quoter %+v (%v)", lq, lerr, nq, nerr)
	}

	lt, _ := ThresholdQuote(30, group, 0.37)
	nt, _ := q.ThresholdQuote(30, group, 0.37, s)
	if lt != nt {
		t.Fatalf("ThresholdQuote: legacy %+v vs quoter %+v", lt, nt)
	}

	lm, _ := DefaultMonteCarlo.MinOuterPayment(30, group, rand.New(rand.NewSource(11)))
	nm, _ := q.MinOuterPayment(30, group, rand.New(rand.NewSource(11)), s)
	if math.Float64bits(lm) != math.Float64bits(nm) {
		t.Fatalf("MinOuterPayment: legacy %v vs quoter %v", lm, nm)
	}
}

// TestQuoterStats checks the counters that feed metrics.PricingStats.
func TestQuoterStats(t *testing.T) {
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	group := []*History{MustHistory([]float64{5, 10, 15})}
	if _, err := q.MaxExpectedRevenue(20, group, s); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ThresholdQuote(20, group, 0.5, s); err != nil {
		t.Fatal(err)
	}
	if _, err := q.MinOuterPayment(20, group, rand.New(rand.NewSource(1)), s); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.RevenueQuotes != 1 || st.ThresholdQuotes != 1 || st.MonteCarloQuotes != 1 {
		t.Fatalf("quote counters = %+v, want one each", st)
	}
	if st.ProbEvals == 0 {
		t.Error("no probability evaluations counted")
	}
	if st.TableHits == 0 {
		t.Error("no Monte-Carlo payment-cache hits counted")
	}
	if hr := st.TableHitRate(); hr <= 0 || hr > 1 {
		t.Errorf("TableHitRate = %v, want in (0,1]", hr)
	}
	if st.ScratchReuses == 0 || st.ScratchAllocs != 0 {
		t.Errorf("scratch counters = reuses %d allocs %d; caller-owned scratch should only reuse",
			st.ScratchReuses, st.ScratchAllocs)
	}
}

// TestQuoterScratchNoAlloc is the point of the redesign: with a
// caller-owned Scratch, warmed-up quoting allocates nothing.
func TestQuoterScratchNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	group := []*History{
		randHistory(t, rng, 16, 50),
		randHistory(t, rng, 9, 50),
		randHistory(t, rng, 30, 50),
	}
	mcRng := rand.New(rand.NewSource(5))
	warm := func() {
		if _, err := q.MinOuterPayment(35, group, mcRng, s); err != nil {
			t.Fatal(err)
		}
		if _, err := q.ThresholdQuote(35, group, 0.4, s); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("warmed quoter allocates %v objects per quote pair, want 0", allocs)
	}
	// MaxExpectedRevenue is not asserted at zero: its sort.Slice call
	// allocates a few fixed objects, and the sort is kept because the
	// sweep's float product depends on the exact permutation pdqsort
	// gives equal-pay breakpoints. Guard a small constant bound instead.
	if err := func() error { _, err := q.MaxExpectedRevenue(35, group, s); return err }(); err != nil {
		t.Fatal(err)
	}
	rev := func() {
		if _, err := q.MaxExpectedRevenue(35, group, s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, rev); allocs > 4 {
		t.Errorf("warmed MaxExpectedRevenue allocates %v objects, want <= 4 (sort.Slice only)", allocs)
	}
}

// referenceMinOuterPayment is the per-draw Algorithm 2 estimator the
// table-driven kernel replaced, kept as its oracle: the same shard seeds
// and instance ranges, a fresh math/rand stream per shard, one
// rng.Float64() per worker decision and a per-shard payment cache of
// probability rows.
func referenceMinOuterPayment(mc MonteCarlo, scan bool, value float64, group []*History, rng *rand.Rand) (float64, error) {
	if err := mc.Validate(); err != nil {
		return 0, err
	}
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return 0, errBadValue(value)
	}
	if len(group) == 0 {
		return value + epsilonFor(value), nil
	}
	prob := func(h *History, payment float64) float64 {
		if scan {
			return h.AcceptProb(payment)
		}
		return h.AcceptProbTable(payment)
	}
	ns := mc.Instances()
	var seeds [mcShards]int64
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	nw := len(group)
	sum := 0.0
	for shard, seed := range seeds {
		srng := rand.New(rand.NewSource(seed))
		var pays, probs []float64
		row := func(payment float64) []float64 {
			for i, p := range pays {
				if p == payment {
					return probs[i*nw : (i+1)*nw]
				}
			}
			if len(pays) >= 64 {
				return nil
			}
			pays = append(pays, payment)
			for range group {
				probs = append(probs, math.NaN())
			}
			return probs[len(probs)-nw:]
		}
		anyAccepts := func(payment float64) bool {
			if payment <= 0 {
				for range group {
					if srng.Float64() <= 0 {
						return true
					}
				}
				return false
			}
			r := row(payment)
			for wi, h := range group {
				var p float64
				if r == nil {
					p = prob(h, payment)
				} else if p = r[wi]; p != p {
					p = prob(h, payment)
					r[wi] = p
				}
				if srng.Float64() <= p {
					return true
				}
			}
			return false
		}
		eps := epsilonFor(value)
		lo, hi := shard*ns/mcShards, (shard+1)*ns/mcShards
		part := 0.0
		for i := lo; i < hi; i++ {
			if !anyAccepts(value) {
				part += value + eps
				continue
			}
			vl, vh := 0.0, value
			vm := vh / 2
			for vm-vl > mc.Xi*value {
				if anyAccepts(vm) {
					vh = vm
				} else {
					vl = vm
				}
				vm = (vh-vl)/2 + vl
			}
			part += vl
		}
		sum += part
	}
	est := sum / float64(ns)
	if floor := groupFloor(group); est < floor {
		est = floor
	}
	return est, nil
}

// mcGroupKinds is the number of group shapes mcGroup builds.
const mcGroupKinds = 5

// mcGroup builds a group of n workers of one of several shapes: random
// histories with duplicates and empty ones mixed in (kind 0), histories
// all above value so every probability is 0 (kind 1), histories all
// within a sliver of 0 so every probe's probability is 1 (kind 2),
// all-empty histories (kind 3), and workers priced out but for a random
// last one, so every accept comes at the end of the group (kind 4).
func mcGroup(tb testing.TB, rng *rand.Rand, n, kind int, value float64) []*History {
	group := make([]*History, n)
	for i := range group {
		if kind == 4 && i < n-1 {
			group[i] = MustHistory([]float64{value * (1.5 + rng.Float64())})
			continue
		}
		switch kind {
		case 0, 4:
			size := rng.Intn(40)
			if rng.Intn(6) == 0 {
				size = 0
			}
			group[i] = randHistory(tb, rng, size, value*1.3)
		case 1:
			group[i] = MustHistory([]float64{value * (1.5 + rng.Float64()), value * 3})
		case 2:
			group[i] = MustHistory([]float64{math.Nextafter(0, 1), math.Nextafter(0, 1)})
		default:
			group[i] = MustHistory(nil)
		}
	}
	return group
}

// checkAgainstReference quotes one group with the kernel and with the
// reference from the same rng state and fails on any difference in the
// estimate's bits, the error, or the caller rng's next draw.
func checkAgainstReference(t *testing.T, mc MonteCarlo, scan bool, value float64, group []*History, seed int64, s *Scratch) {
	t.Helper()
	q := NewQuoter(mc)
	q.Scan = scan
	rngK, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, gerr := q.MinOuterPayment(value, group, rngK, s)
	want, werr := referenceMinOuterPayment(mc, scan, value, group, rngR)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%+v scan=%v value=%v n=%d: error %v, reference %v", mc, scan, value, len(group), gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v scan=%v value=%v n=%d seed=%d: estimate %v, reference %v", mc, scan, value, len(group), seed, got, want)
	}
	if a, b := rngK.Int63(), rngR.Int63(); a != b {
		t.Fatalf("%+v scan=%v value=%v n=%d seed=%d: caller rng next draw %d, reference %d", mc, scan, value, len(group), seed, a, b)
	}
}

// TestMinOuterPaymentMatchesReference pins the kernel to the per-draw
// estimator bit for bit across group sizes, group shapes, accuracy
// settings and both probability paths. One Scratch serves every quote,
// so stale table state from an earlier quote would show up here too.
func TestMinOuterPaymentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewScratch()
	for _, xi := range []float64{0.01, 0.05, 0.1, 0.3} {
		for _, eta := range []float64{0.1, 0.25} {
			mc := MonteCarlo{Xi: xi, Eta: eta}
			for n := 1; n <= 24; n++ {
				if testing.Short() && n%3 != 0 {
					continue
				}
				for kind := 0; kind < mcGroupKinds; kind++ {
					value := 1 + rng.Float64()*60
					group := mcGroup(t, rng, n, kind, value)
					seed := rng.Int63()
					checkAgainstReference(t, mc, false, value, group, seed, s)
					checkAgainstReference(t, mc, true, value, group, seed, s)
				}
			}
		}
	}
	// Subnormal prices: the dichotomy's payments round down to 0, and
	// pr(0, w) = 0 leaves only the draw x = 0 accepting.
	for _, value := range []float64{math.Nextafter(0, 1), 2 * math.Nextafter(0, 1), 7e-323} {
		for kind := 0; kind < mcGroupKinds; kind++ {
			group := mcGroup(t, rng, 1+rng.Intn(5), kind, value)
			checkAgainstReference(t, DefaultMonteCarlo, false, value, group, rng.Int63(), s)
		}
	}
}

// FuzzMinOuterPayment runs the reference comparison on arbitrary
// seeds, group sizes and shapes, prices and accuracy settings.
func FuzzMinOuterPayment(f *testing.F) {
	f.Add(int64(1), uint8(19), uint8(0), 35.0, uint8(2), false)
	f.Add(int64(42), uint8(4), uint8(1), 12.5, uint8(5), true)
	f.Add(int64(-7), uint8(24), uint8(2), 1e-300, uint8(0), false)
	f.Add(int64(9), uint8(1), uint8(3), 5e-324, uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, n, kind uint8, value float64, cfg uint8, scan bool) {
		if !(value > 0) || math.IsInf(value, 0) || value > 1e300 {
			t.Skip()
		}
		mc := MonteCarlo{
			Xi:  []float64{0.01, 0.05, 0.1, 0.3}[cfg%4],
			Eta: []float64{0.1, 0.25}[cfg/4%2],
		}
		rng := rand.New(rand.NewSource(seed))
		group := mcGroup(t, rng, int(n%25), int(kind%mcGroupKinds), value)
		checkAgainstReference(t, mc, scan, value, group, rng.Int63(), NewScratch())
	})
}

// TestAcceptThreshold checks the integer threshold against the float64
// comparison it replaces, for every Int63 within 4096 of the threshold:
// x <= acceptThreshold(p) must hold exactly when float64(x)/2^63 <= p.
func TestAcceptThreshold(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-63, 0x1p-53, 0x1p-11,
		0.1, 0.25, 1.0 / 3, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1, 0), 1}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(80)))
	}
	for _, p := range ps {
		th := acceptThreshold(p)
		for d := int64(-4096); d <= 4096; d++ {
			if d > 0 && th > math.MaxInt64-d {
				break
			}
			x := th + d
			if x < 0 {
				continue
			}
			if got, want := x <= th, float64(x)/(1<<63) <= p; got != want {
				t.Fatalf("p=%v (threshold %d): x=%d thresholded %v, float64 compare %v", p, th, x, got, want)
			}
		}
	}
	if th := acceptThreshold(-0.5); th != -1 {
		t.Errorf("acceptThreshold(-0.5) = %d, want -1", th)
	}
}

// TestRedrawCut checks mcRedraw is exactly where rand.Float64 rounds an
// Int63 to 1 and draws again.
func TestRedrawCut(t *testing.T) {
	for x := int64(mcRedraw - 4096); ; x++ {
		if got, want := x >= mcRedraw, float64(x)/(1<<63) == 1; got != want {
			t.Fatalf("x=%d: redraw cut says %v, Float64 rounds to 1: %v", x, got, want)
		}
		if x == math.MaxInt64 {
			break
		}
	}
}

// TestQuoterNoAllocAnyGOMAXPROCS counts heap allocations over 1,000 warm
// quotes at the process's own GOMAXPROCS: testing.AllocsPerRun pins
// GOMAXPROCS to 1, which would hide allocations made only on a
// multi-core schedule.
func TestQuoterNoAllocAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	group := mcGroup(t, rng, 19, 0, 30)
	mcRng := rand.New(rand.NewSource(4))
	quote := func() {
		if _, err := q.MinOuterPayment(30, group, mcRng, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		quote()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		quote()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("1000 warm quotes at GOMAXPROCS=%d made %d heap allocations, want 0", runtime.GOMAXPROCS(0), n)
	}
}

// TestGridEviction checks the supply/demand grid sheds cells untouched
// longer than one decay horizon, and never evicts when decay is 1.
func TestGridEviction(t *testing.T) {
	g, err := NewGrid(1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Touch many distinct cells at tick 0 ...
	for i := 0; i < 64; i++ {
		g.RecordDemand(geo.Point{X: float64(i) * 2}, 0)
	}
	if g.Cells() != 64 {
		t.Fatalf("cells = %d, want 64", g.Cells())
	}
	// ... then hammer one cell far past the horizon (log(1e-9)/log(0.5)
	// = 30 slots): the sweep runs within len(counts) mutations and drops
	// every stale cell.
	for i := 0; i < 200; i++ {
		g.RecordSupply(geo.Point{X: 0.5, Y: 0.5}, 10_000+int64(i))
	}
	if g.Cells() != 1 {
		t.Errorf("cells after horizon = %d, want 1 (stale cells evicted)", g.Cells())
	}

	// decay == 1: counts never fade, so nothing may ever be evicted.
	g1, err := NewGrid(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		g1.RecordDemand(geo.Point{X: float64(i) * 2}, 0)
	}
	for i := 0; i < 500; i++ {
		g1.RecordSupply(geo.Point{X: 0.5, Y: 0.5}, 1_000_000+int64(i))
	}
	if g1.Cells() != 64 {
		t.Errorf("decay=1 cells = %d, want 64 (no eviction)", g1.Cells())
	}
}
