package fastrand

import (
	"math/rand"
	"testing"
)

func TestCompatible(t *testing.T) {
	if !compatible {
		t.Fatal("fastrand: reconstruction self-check failed against this Go runtime's math/rand")
	}
}

// TestStreamIdentity drives a Source and a stdlib source in lockstep
// across many seeds, including re-seeding the same Source, and through
// the rand.Rand wrapper methods the pricing code actually consumes.
func TestStreamIdentity(t *testing.T) {
	var s Source
	for _, seed := range []int64{0, 1, 2, 42, -1, -(1 << 62), 1<<63 - 1, 89482311, int32max, int32max + 1, 7919} {
		s.Seed(seed)
		std := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1000; i++ {
			if got, want := s.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, got, want)
			}
		}
	}
	// Through *rand.Rand: Float64/Int63/Intn must match too.
	for _, seed := range []int64{3, 1234567891011} {
		s.Seed(seed)
		mine := rand.New(&s)
		std := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if got, want := mine.Float64(), std.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
			if got, want := mine.Int63(), std.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
			if got, want := mine.Intn(97), std.Intn(97); got != want {
				t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, got, want)
			}
		}
	}
}

// FuzzStreamIdentity hammers arbitrary seeds, on the fast path and on
// the delegating fallback, and checks Fill in chunks of arbitrary size
// interleaved with single Int63 draws.
func FuzzStreamIdentity(f *testing.F) {
	f.Add(int64(1), uint16(128))
	f.Add(int64(-12345), uint16(1))
	f.Add(int64(1<<50), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, chunk uint16) {
		var s Source
		s.Seed(seed)
		std := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 650; i++ { // past one full state length
			if got, want := s.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, got, want)
			}
		}
		s.Seed(seed)
		checkFill(t, &s, seed, int(chunk%1500))
		checkFill(t, fallbackSource(seed), seed, int(chunk%1500))
	})
}

// fallbackSource returns a Source in the delegating mode Seed selects
// when the package's self-check fails.
func fallbackSource(seed int64) *Source {
	return &Source{fallback: rand.NewSource(seed).(rand.Source64)}
}

// checkFill drives s (freshly seeded with seed) and a stdlib source in
// lockstep through rounds of Fill(chunk) followed by one Int63, past
// three full state lengths, requiring identical draws.
func checkFill(t *testing.T, s *Source, seed int64, chunk int) {
	t.Helper()
	std := rand.NewSource(seed)
	buf := make([]int64, chunk)
	for drawn := 0; drawn < 3*rngLen; drawn += chunk + 1 {
		s.Fill(buf)
		for i, got := range buf {
			if want := std.Int63(); got != want {
				t.Fatalf("seed %d chunk %d: Fill draw %d = %d, want %d", seed, chunk, drawn+i, got, want)
			}
		}
		if got, want := s.Int63(), std.Int63(); got != want {
			t.Fatalf("seed %d chunk %d: Int63 after Fill = %d, want %d", seed, chunk, got, want)
		}
	}
}

// TestFill checks Fill against the stdlib stream for chunk sizes that
// end on, straddle and span the state's index wrap-arounds, on the fast
// path and on the delegating fallback.
func TestFill(t *testing.T) {
	for _, seed := range []int64{0, 42, -9, 1 << 40} {
		for _, chunk := range []int{0, 1, 7, 128, rngTap, rngLen - rngTap, rngLen, rngLen + 1, 1500} {
			var s Source
			s.Seed(seed)
			checkFill(t, &s, seed, chunk)
			checkFill(t, fallbackSource(seed), seed, chunk)
		}
	}
}

func BenchmarkSeedFast(b *testing.B) {
	var s Source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkSeedStdlib(b *testing.B) {
	src := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkFill(b *testing.B) {
	var s Source
	s.Seed(1)
	var buf [128]int64
	b.SetBytes(int64(len(buf)) * 8)
	for i := 0; i < b.N; i++ {
		s.Fill(buf[:])
	}
}

func BenchmarkInt63(b *testing.B) {
	var s Source
	s.Seed(1)
	var buf [128]int64
	b.SetBytes(int64(len(buf)) * 8)
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = s.Int63()
		}
	}
}
