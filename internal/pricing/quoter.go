package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"crossmatch/internal/fastrand"
)

// Quoter is the pricing seam the matchers drive: every quote method
// takes an explicit per-goroutine Scratch so the hot path performs no
// per-call allocation. One Quoter (and one Scratch) belongs to one
// matcher goroutine; MinOuterPayment runs its Monte-Carlo shards one
// after another on that goroutine, so a Quoter starts no goroutines and
// never needs locking.
type Quoter interface {
	// MaxExpectedRevenue computes the exact Definition 4.1 maximizer
	// (see the package function of the same name).
	MaxExpectedRevenue(value float64, group []*History, s *Scratch) (Quote, error)
	// ThresholdQuote is the 1/e-style randomized threshold quote.
	ThresholdQuote(value float64, group []*History, u float64, s *Scratch) (Quote, error)
	// MinOuterPayment runs the Algorithm 2 Monte-Carlo estimator.
	MinOuterPayment(value float64, group []*History, rng *rand.Rand, s *Scratch) (float64, error)
	// Stats returns the cumulative quote counters.
	Stats() Stats
}

// Stats are a Quoter's cumulative counters. Read them after the runs
// driving the quoter have finished; they are plain integers updated on
// the quoter's goroutine.
type Stats struct {
	// Quote counts by method.
	RevenueQuotes    int64 `json:"revenue_quotes"`
	ThresholdQuotes  int64 `json:"threshold_quotes"`
	MonteCarloQuotes int64 `json:"monte_carlo_quotes"`
	// ProbEvals counts acceptance-probability evaluations performed while
	// quoting; TableHits the subset the Monte-Carlo estimator answered
	// from its per-quote table instead of a fresh History lookup.
	ProbEvals int64 `json:"prob_evals"`
	TableHits int64 `json:"table_hits"`
	// ScratchReuses counts quote calls that arrived with a caller-owned
	// Scratch; ScratchAllocs the calls that had to allocate one.
	ScratchReuses int64 `json:"scratch_reuses"`
	ScratchAllocs int64 `json:"scratch_allocs"`
}

// TableHitRate returns TableHits / ProbEvals, or 0 before any evaluation.
func (s Stats) TableHitRate() float64 {
	if s.ProbEvals == 0 {
		return 0
	}
	return float64(s.TableHits) / float64(s.ProbEvals)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RevenueQuotes += o.RevenueQuotes
	s.ThresholdQuotes += o.ThresholdQuotes
	s.MonteCarloQuotes += o.MonteCarloQuotes
	s.ProbEvals += o.ProbEvals
	s.TableHits += o.TableHits
	s.ScratchReuses += o.ScratchReuses
	s.ScratchAllocs += o.ScratchAllocs
}

// TableQuoter is the standard Quoter: acceptance probabilities come from
// the precomputed History CDF tables (bit-identical to the exact scan)
// unless Scan flips the A/B reference path back on, and every reusable
// buffer lives in the caller's Scratch.
type TableQuoter struct {
	// MC configures the Algorithm 2 estimator behind MinOuterPayment.
	MC MonteCarlo
	// Scan switches acceptance-probability evaluations from the CDF
	// tables to the exact sorted-values scan. Results are bit-identical
	// either way (the tables store the same float64 divisions); the knob
	// exists so callers can A/B the two paths in one run.
	Scan bool

	stats Stats
}

// NewQuoter returns a table-backed quoter for the given Monte-Carlo
// configuration.
func NewQuoter(mc MonteCarlo) *TableQuoter { return &TableQuoter{MC: mc} }

// Stats implements Quoter.
func (q *TableQuoter) Stats() Stats { return q.stats }

// prob evaluates one worker's acceptance probability on the configured
// path. Both branches return identical bits for every payment.
func (q *TableQuoter) prob(h *History, payment float64) float64 {
	if q.Scan {
		return h.AcceptProb(payment)
	}
	return h.AcceptProbTable(payment)
}

// breakpoint is one step of the group acceptance CDF: at payment pay,
// worker w's acceptance probability becomes newP.
type breakpoint struct {
	pay  float64
	w    int
	newP float64
}

// Scratch is the per-goroutine buffer set of a Quoter. A Scratch must
// not be copied or shared between goroutines; matchers keep one for the
// lifetime of a run. The zero value is not usable — call NewScratch.
type Scratch struct {
	group []*History // candidate-group buffer for matchers (Group)
	bps   []breakpoint
	cur   []float64
	mc    mcTable
}

// mcTable is the Monte-Carlo kernel's per-quote state, shared by the
// shards, which run one after another on the caller's goroutine.
//
// The dichotomy of Algorithm 2 is a binary tree: node 0 probes the full
// price, node 1 the midpoint value/2, and every probing node has a child
// for "someone accepted" (the bracket's lower half) and one for "nobody
// did" (the upper half). A node's bracket, payment and stop test depend
// only on its path, so they are computed once per quote, when the first
// instance reaches the node, with the same arithmetic the per-instance
// loop used. So is each worker's acceptance probability at the node's
// payment, stored as an integer threshold on the shard's Int63 draws.
type mcTable struct {
	nodes []mcNode
	thr   []int64 // len(nodes) x nw thresholds; mcUnset = not yet computed
	nw    int
	xiv   float64 // Xi*value, the dichotomy's stop width

	src   fastrand.Source // re-seeded per shard
	draws [mcDrawBatch]int64
	kept  int // draws[:kept] hold the current batch's kept draws
	pos   int // next unread index in draws

	// per-quote counters, folded into the quoter's Stats
	checks, evals int64
}

// mcNode is one dichotomy-tree node: the bracket [vl, vh], the payment
// vm probed there, whether the loop probes at all (vm-vl > Xi*value),
// and the indices of the accept/decline children (0 = not yet built).
type mcNode struct {
	vl, vh, vm float64
	probe      bool
	next       [2]int32
}

const (
	// mcDrawBatch is how many Int63 draws a shard takes from its source
	// at a time. Draws left over when a shard ends are discarded with
	// the shard's stream; no other consumer ever reads it.
	mcDrawBatch = 64
	// mcRedraw is the smallest Int63 that rand.Float64 rounds to 1 and
	// therefore discards, drawing again.
	mcRedraw = 1<<63 - 512
	// mcUnset marks a threshold not yet computed this quote.
	mcUnset = math.MinInt64
	// mcGroupHint sizes the initial threshold table: the matchers cap
	// the groups they price at 24 workers.
	mcGroupHint = 32
)

// acceptThreshold returns the largest Int63 x with float64(x)/(1<<63) <= p,
// so that x <= acceptThreshold(p) decides exactly what rng.Float64() <= p
// decides for the Float64 built from x (or -1 when no x qualifies). The
// division by 2^63 is exact, so the test is float64(x) <= P with
// P = p*2^63. Below 2^53 every integer converts exactly and the answer is
// floor(P); from 2^53 on P is an integer, and the integers above it that
// still round down to P are those below the midpoint to the next float64,
// plus the midpoint itself when round-half-to-even picks P.
func acceptThreshold(p float64) int64 {
	if !(p >= 0) {
		return -1
	}
	P := p * (1 << 63)
	if P >= 1<<63 {
		return 1<<63 - 1
	}
	if P < 1<<53 {
		return int64(P)
	}
	half := int64((math.Nextafter(P, math.Inf(1)) - P) / 2)
	t := int64(P) + half
	if math.Float64bits(P)&1 != 0 {
		t--
	}
	return t
}

// NewScratch returns a ready Scratch. The Monte-Carlo source state
// (~12 KiB) is allocated here once and re-seeded per shard, and the
// dichotomy table starts with room for the trees practical Xi produce.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.mc.nodes = make([]mcNode, 0, 64)
	s.mc.thr = make([]int64, 0, 64*mcGroupHint)
	return s
}

// Group returns the scratch's candidate-group buffer resized to n;
// matchers fill it instead of allocating a fresh []*History per request.
func (s *Scratch) Group(n int) []*History {
	if cap(s.group) < n {
		s.group = make([]*History, n)
	}
	return s.group[:n]
}

// ensure charges the quoter's scratch counters and returns a usable
// scratch, allocating only when the caller passed nil.
func (q *TableQuoter) ensure(s *Scratch) *Scratch {
	if s != nil {
		q.stats.ScratchReuses++
		return s
	}
	q.stats.ScratchAllocs++
	return NewScratch()
}

// MinOuterPayment implements Quoter: Algorithm 2 with the identical RNG
// consumption contract of MonteCarlo.MinOuterPayment — the same shard
// seeds drawn in the same order from rng, the same per-shard instance
// ranges and draw sequences — so estimates are bit-identical, merely
// computed without per-call allocation.
func (q *TableQuoter) MinOuterPayment(value float64, group []*History, rng *rand.Rand, s *Scratch) (float64, error) {
	if err := q.MC.Validate(); err != nil {
		return 0, err
	}
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return 0, errBadValue(value)
	}
	q.stats.MonteCarloQuotes++
	if len(group) == 0 {
		return value + epsilonFor(value), nil
	}
	s = q.ensure(s)
	t := &s.mc
	t.reset(value, q.MC.Xi*value, len(group))

	// The seeds are drawn in shard order, one per shard of the fixed
	// shard count, and each shard is sampled right after its seed: no
	// other draw from rng happens in between, so this is the same
	// consumption as drawing all seeds first.
	ns := q.MC.Instances()
	sum := 0.0
	for shard := 0; shard < mcShards; shard++ {
		t.src.Seed(rng.Int63())
		t.pos, t.kept = 0, 0
		lo, hi := shard*ns/mcShards, (shard+1)*ns/mcShards
		sum += q.sampleInstances(value, group, hi-lo, t)
	}
	q.stats.ProbEvals += t.checks
	q.stats.TableHits += t.checks - t.evals
	est := sum / float64(ns)
	// No payment below the cheapest value any group member ever accepted
	// can attract anyone (Definition 3.1 gives it probability zero), so
	// the minimum outer payment is clamped up to that exact floor. The
	// dichotomy's v_l can undershoot it by up to Xi*value.
	if floor := groupFloor(group); est < floor {
		est = floor
	}
	return est, nil
}

// reset empties the table for a quote of value over nw workers and
// builds its two fixed nodes: the full price and the dichotomy's root.
func (t *mcTable) reset(value, xiv float64, nw int) {
	t.nodes, t.thr = t.nodes[:0], t.thr[:0]
	t.nw, t.xiv = nw, xiv
	t.checks, t.evals = 0, 0
	t.add(mcNode{vm: value, probe: true})
	vl, vh := 0.0, value
	vm := vh / 2
	t.add(mcNode{vl: vl, vh: vh, vm: vm, probe: vm-vl > xiv})
}

// add appends a node with all its thresholds unset and returns its index.
func (t *mcTable) add(n mcNode) int32 {
	k := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	for range t.nw {
		t.thr = append(t.thr, mcUnset)
	}
	return k
}

// child builds node k's child on branch b (0 = someone accepted vm,
// 1 = nobody did) on its first visit, with the dichotomy's update:
// accepted narrows to [vl, vm], declined to [vm, vh], and the next probe
// is vm = (vh-vl)/2 + vl.
func (t *mcTable) child(k int32, b int) int32 {
	n := &t.nodes[k]
	vl, vh := n.vl, n.vh
	if b == 0 {
		vh = n.vm
	} else {
		vl = n.vm
	}
	vm := (vh-vl)/2 + vl
	c := t.add(mcNode{vl: vl, vh: vh, vm: vm, probe: vm-vl > t.xiv})
	t.nodes[k].next[b] = c
	return c
}

// refill takes the shard stream's next mcDrawBatch Int63 draws and
// keeps the ones rand.Float64 would keep: an Int63 it rounds to 1 is
// discarded and replaced by the next draw, so dropping it here leaves
// exactly the sequence of values the per-draw Float64 calls used.
func (t *mcTable) refill() {
	t.src.Fill(t.draws[:])
	t.kept = len(t.draws)
	for i, x := range t.draws {
		if x >= mcRedraw {
			t.kept = i + keepDraws(t.draws[i:])
			return
		}
	}
}

// keepDraws compacts the draws below mcRedraw to the front of d and
// returns their count.
func keepDraws(d []int64) int {
	kept := 0
	for _, x := range d {
		if x < mcRedraw {
			d[kept] = x
			kept++
		}
	}
	return kept
}

// accepts samples the group's decisions at node k's payment: worker by
// worker in group order, one draw each, stopping at the first accept,
// exactly as the per-draw `rng.Float64() <= pr(payment, w)` loop did.
func (q *TableQuoter) accepts(group []*History, k int32, t *mcTable) bool {
	nw := t.nw
	thr := t.thr[int(k)*nw : int(k)*nw+nw]
	draws, pos := t.draws[:t.kept], t.pos
	for wi, th := range thr {
		if th == mcUnset {
			th = acceptThreshold(q.prob(group[wi], t.nodes[k].vm))
			thr[wi] = th
			t.evals++
		}
		for pos >= len(draws) {
			t.refill()
			draws, pos = t.draws[:t.kept], 0
		}
		x := draws[pos]
		pos++
		if x <= th {
			t.pos = pos
			t.checks += int64(wi + 1)
			return true
		}
	}
	t.pos = pos
	t.checks += int64(nw)
	return false
}

// sampleInstances runs n sampling instances of Algorithm 2 on the
// shard stream the caller seeded and returns the sum of their
// contributions. Each instance probes the full price (a decline
// contributes value+epsilon), then walks the dichotomy tree down to a
// node whose bracket is within Xi*value and contributes its v_l.
func (q *TableQuoter) sampleInstances(value float64, group []*History, n int, t *mcTable) float64 {
	eps := epsilonFor(value)
	sum := 0.0
	for i := 0; i < n; i++ {
		if !q.accepts(group, 0, t) {
			sum += value + eps
			continue
		}
		k := int32(1)
		for t.nodes[k].probe {
			b := 1
			if q.accepts(group, k, t) {
				b = 0
			}
			if c := t.nodes[k].next[b]; c != 0 {
				k = c
			} else {
				k = t.child(k, b)
			}
		}
		// The instance contributes the lower bracket v_l: Section III-B2
		// states the minimum outer payment "is approximated by these
		// v_l". Taking the bracket's low end (rather than the midpoint)
		// keeps the estimate at or below each instance's sampled
		// acceptance frontier, which is what produces the paper's
		// characteristically low DemCOM acceptance ratio (~17%): the
		// platform offers the least it might get away with.
		sum += t.nodes[k].vl
	}
	return sum
}

// MaxExpectedRevenue implements Quoter: the exact Definition 4.1
// maximizer of the package function of the same name, with the
// breakpoint and per-worker probability buffers drawn from the scratch.
// The sweep (breakpoint construction order, sort, incremental product
// arithmetic) is identical, so quotes are bit-identical.
func (q *TableQuoter) MaxExpectedRevenue(value float64, group []*History, s *Scratch) (Quote, error) {
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return Quote{}, errBadValue(value)
	}
	q.stats.RevenueQuotes++
	if len(group) == 0 {
		return Quote{}, nil // nobody to pay; zero quote means "reject"
	}
	s = q.ensure(s)

	// Collect the union of breakpoints: each worker's acceptance curve
	// jumps exactly at its distinct history values, which is what the CDF
	// table stores — so the table path reads (uniq, cdf) pairs directly
	// while the scan path re-derives them from the raw values. Both emit
	// the same breakpoints in the same order.
	bps := s.bps[:0]
	for wi, h := range group {
		if h.Len() == 0 {
			// Empty history: accepts any positive payment (probability 1
			// from the smallest representable payment).
			bps = append(bps, breakpoint{pay: math.Nextafter(0, 1), w: wi, newP: 1})
			continue
		}
		if q.Scan {
			vals := h.Values()
			for i, v := range vals {
				if v > value {
					break
				}
				// Skip duplicates; the final probability at v is the count
				// of values <= v over N, i.e. set at the LAST copy of v.
				if i+1 < len(vals) && vals[i+1] == v {
					continue
				}
				bps = append(bps, breakpoint{pay: v, w: wi, newP: float64(i+1) / float64(h.Len())})
			}
			continue
		}
		for i, v := range h.uniq {
			if v > value {
				break
			}
			bps = append(bps, breakpoint{pay: v, w: wi, newP: h.cdf[i]})
		}
	}
	s.bps = bps // keep the grown buffer
	if len(bps) == 0 {
		return Quote{}, nil // nobody in the group can be afforded
	}
	sort.Slice(bps, func(i, j int) bool { return bps[i].pay < bps[j].pay })

	// Sweep the breakpoints in ascending payment order, maintaining the
	// product of per-worker decline probabilities incrementally.
	if cap(s.cur) < len(group) {
		s.cur = make([]float64, len(group))
	}
	cur := s.cur[:len(group)]
	for i := range cur {
		cur[i] = 0
	}
	declineProd := 1.0 // product of (1 - cur[w]) over workers with cur < 1
	zeros := 0         // number of workers with cur == 1

	best := Quote{}
	for i := 0; i < len(bps); {
		pay := bps[i].pay
		for ; i < len(bps) && bps[i].pay == pay; i++ {
			b := bps[i]
			old := cur[b.w]
			if old == 1 {
				zeros--
			} else {
				declineProd /= 1 - old
			}
			if b.newP == 1 {
				zeros++
			} else {
				declineProd *= 1 - b.newP
			}
			cur[b.w] = b.newP
		}
		p := 1.0
		if zeros == 0 {
			p = 1 - declineProd
		}
		if p <= 0 {
			continue
		}
		e := (value - pay) * p
		// Prefer strictly better expected revenue; on ties prefer the
		// higher payment (better acceptance, same revenue).
		if e > best.ExpectedRev+1e-15 || (almostEq(e, best.ExpectedRev) && pay > best.Payment) {
			best = Quote{Payment: pay, AcceptProb: p, ExpectedRev: e}
		}
	}
	return best, nil
}

// ThresholdQuote implements Quoter: the 1/e-style randomized threshold
// quote of the package function of the same name.
func (q *TableQuoter) ThresholdQuote(value float64, group []*History, u float64, s *Scratch) (Quote, error) {
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return Quote{}, errBadValue(value)
	}
	if u <= 0 || u > 1 {
		return Quote{}, errBadThreshold(u)
	}
	q.stats.ThresholdQuotes++
	if len(group) == 0 {
		return Quote{}, nil
	}
	pay := value * math.Exp(-u)
	// pr(v', W) per Definition 4.1, on the configured evaluation path.
	noneAccepts := 1.0
	p := 0.0
	if pay > 0 {
		for _, h := range group {
			noneAccepts *= 1 - q.prob(h, pay)
			q.stats.ProbEvals++
			if noneAccepts == 0 {
				break
			}
		}
		p = 1 - noneAccepts
	}
	return Quote{Payment: pay, AcceptProb: p, ExpectedRev: (value - pay) * p}, nil
}

// errBadValue and errBadThreshold match the error texts of the original
// package-level entry points, which the quoter methods now back.
func errBadValue(v float64) error {
	return fmt.Errorf("pricing: request value %v must be positive and finite", v)
}

func errBadThreshold(u float64) error {
	return fmt.Errorf("pricing: threshold draw u = %v outside (0,1]", u)
}

// scratchPool backs the legacy package-level entry points
// (MonteCarlo.MinOuterPayment, MaxExpectedRevenue, ThresholdQuote), which
// predate the explicit-Scratch API and so borrow one per call.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}
