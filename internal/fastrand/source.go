// Package fastrand provides a reusable drop-in replacement for the
// rand.Source64 returned by math/rand.NewSource, producing the identical
// output stream with a much cheaper Seed and a bulk Fill.
//
// Why it exists: the Monte-Carlo pricing path re-seeds its shard
// sub-streams on every quote (the shard seeds are part of the
// deterministic RNG consumption contract, so the sequence cannot be
// cached across quotes). math/rand's Seed burns ~1800 sequential Lehmer
// LCG steps computed with Schrage's algorithm — two integer divisions
// per step — which profiles as the single largest cost of the DemCOM
// hot path. The same LCG step modulo the Mersenne prime 2^31-1 reduces
// to one 64-bit multiply plus a fold, several times faster, and the
// additive lagged-Fibonacci state it feeds is otherwise identical.
//
// The seeding recipe XORs each state word with a constant table
// (rngCooked in math/rand/rng.go) that is not exported. Rather than
// copying it, init() reconstructs it from public behaviour: the first
// 607 Uint64 outputs of a freshly seeded stdlib source determine its
// full internal state (each output is a wrapping sum of two state words
// and the overwrite pattern makes the system triangular), and XORing
// out the recomputable seed-derived part leaves the table. A self-check
// then compares a Source against the stdlib across several seeds; if
// anything about the stdlib generator ever changes, the package falls
// back to delegating to math/rand.NewSource transparently (correct, just
// slower), so identical streams are guaranteed either way.
package fastrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// cooked is the reconstructed rngCooked table; valid only if compatible.
var cooked [rngLen]int64

// compatible reports whether the reconstruction passed the self-check
// against math/rand. When false, Source delegates to math/rand.NewSource.
var compatible bool

// seedrand advances the Lehmer LCG x' = 48271*x mod (2^31-1) (the
// Park-Miller multiplier math/rand's seedrand uses), but via
// Mersenne-prime folding instead of Schrage's division: for
// p = hi*2^31 + lo, p mod (2^31-1) = hi + lo (folded once more if
// needed). One multiply, no divisions.
func seedrand(x int32) int32 {
	p := uint64(uint32(x)) * 48271
	f := uint32(p>>31) + uint32(p&int32max)
	if f >= int32max {
		f -= int32max
	}
	return int32(f)
}

// adjust maps an int64 seed onto the LCG's state space the way
// math/rand's rngSource.Seed does.
func adjust(seed int64) int32 {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// seedPart returns the seed-derived word mixed into vec[i] during
// seeding (the three-step construction of rngSource.Seed, without the
// rngCooked XOR), advancing x across the call.
func seedPart(x int32) (int64, int32) {
	x = seedrand(x)
	u := int64(x) << 40
	x = seedrand(x)
	u ^= int64(x) << 20
	x = seedrand(x)
	u ^= int64(x)
	return u, x
}

func init() {
	a2 := modmul(48271, 48271)
	seedJump = modmul(a2, a2)
	// Drain one full state length from a stdlib source with a known seed.
	ref, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		return
	}
	var out [rngLen]uint64
	for i := range out {
		out[i] = ref.Uint64()
	}
	// Reconstruct the source's post-seed state vec[0..606]. With tap
	// starting at 0 and feed at 334, output k reads positions
	// feed_k = 333-k (mod 607) and tap_k = 606-k (mod 607) and overwrites
	// feed_k with their wrapping sum. Working through which positions are
	// still original at each step makes the system triangular:
	var vec [rngLen]int64
	for k := 273; k <= 333; k++ {
		// tap position 606-k was overwritten with out[k-273].
		vec[333-k] = int64(out[k] - out[k-273])
	}
	for k := 334; k <= 606; k++ {
		// feed has wrapped to original positions 940-k; tap position
		// 606-k was overwritten with out[k-273].
		vec[940-k] = int64(out[k] - out[k-273])
	}
	for k := 0; k <= 272; k++ {
		// Both positions were original; 606-k is now known.
		vec[333-k] = int64(out[k]) - vec[606-k]
	}
	// XOR out the seed-derived parts to recover the constant table.
	x := adjust(1)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := 0; i < rngLen; i++ {
		var u int64
		u, x = seedPart(x)
		cooked[i] = vec[i] ^ u
	}
	// Self-check Source against the stdlib across a spread of seeds.
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40, -(1 << 35), int32max, 1e18} {
		std, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			return
		}
		var s Source
		s.seedFast(seed)
		for i := 0; i < 64; i++ {
			if s.Uint64() != std.Uint64() {
				return
			}
		}
	}
	compatible = true
}

// Source is a rand.Source64 producing the identical stream to
// math/rand.NewSource(seed) for every seed, with a Seed several times
// cheaper. The zero value is invalid; call Seed before use. A Source is
// reusable: re-seeding restarts the stream with no allocation, which is
// the point — hot paths keep one per sub-stream and re-seed per quote.
// Not safe for concurrent use, like the source it replaces.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
	seedBuf   [3 * rngLen]uint32 // lane scratch for seedFast, reused across Seeds
	fallback  rand.Source64      // set when the reconstruction self-check failed
}

// Seed resets the source to the stream of math/rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	if !compatible {
		// Mirror the slow path's behaviour exactly by delegating.
		if s.fallback == nil {
			s.fallback = rand.NewSource(seed).(rand.Source64)
		} else {
			s.fallback.(rand.Source).Seed(seed)
		}
		return
	}
	s.seedFast(seed)
}

// seedLanes is the number of interleaved LCG lanes seedFast advances.
// The Lehmer recurrence is a sequential dependency chain, so computing
// it one step at a time is latency-bound; jumping each lane by
// A^seedLanes mod p per iteration runs the lanes' multiplies in
// parallel in the pipeline.
const seedLanes = 4

// seedJump = A^seedLanes mod (2^31-1), computed in init.
var seedJump uint64

// modmul returns a*b mod 2^31-1 by Mersenne folding (two folds cover
// the full 62-bit product range).
func modmul(a, b uint64) uint64 {
	p := a * b
	f := (p >> 31) + (p & int32max)
	f = (f >> 31) + (f & int32max)
	if f >= int32max {
		f -= int32max
	}
	return f
}

func (s *Source) seedFast(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := adjust(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	// The 3*rngLen post-warmup LCG values, computed in seedLanes
	// independent strides: y[t+seedLanes] = y[t] * A^seedLanes mod p.
	// The buffer lives in the Source so repeated Seeds touch warm memory
	// and skip the zeroing a stack array would pay.
	y := &s.seedBuf
	lane := uint64(uint32(x))
	for j := 0; j < seedLanes; j++ {
		lane = modmul(lane, 48271)
		y[j] = uint32(lane)
	}
	j1 := seedJump
	for t := seedLanes; t+seedLanes <= len(y); t += seedLanes {
		a := modmul(uint64(y[t-4]), j1)
		b := modmul(uint64(y[t-3]), j1)
		c := modmul(uint64(y[t-2]), j1)
		d := modmul(uint64(y[t-1]), j1)
		y[t], y[t+1], y[t+2], y[t+3] = uint32(a), uint32(b), uint32(c), uint32(d)
	}
	for t := (len(y) / seedLanes) * seedLanes; t < len(y); t++ {
		y[t] = uint32(modmul(uint64(y[t-seedLanes]), j1))
	}
	for i := 0; i < rngLen; i++ {
		u := int64(y[3*i])<<40 ^ int64(y[3*i+1])<<20 ^ int64(y[3*i+2])
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 replicates rngSource.Uint64: an additive lagged-Fibonacci step.
func (s *Source) Uint64() uint64 {
	if s.fallback != nil {
		return s.fallback.Uint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 replicates rngSource.Int63.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Fill writes the next len(dst) Int63 values of the stream into dst,
// the same values len(dst) Int63 calls would return. It is the bulk
// form hot loops use instead of one call per draw: the stream indices
// stay in registers across the whole batch.
func (s *Source) Fill(dst []int64) {
	if s.fallback != nil {
		for i := range dst {
			dst[i] = s.fallback.Int63()
		}
		return
	}
	vec := &s.vec
	tap, feed := s.tap, s.feed
	for i := range dst {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		dst[i] = x & rngMask
	}
	s.tap, s.feed = tap, feed
}

// Compatible reports whether the fast seeding path is active (true) or
// the package is delegating to math/rand (false). Exposed for tests and
// diagnostics; either way the streams are identical.
func Compatible() bool { return compatible }
