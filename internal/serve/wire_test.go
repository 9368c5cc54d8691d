package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"crossmatch"
	"crossmatch/internal/core"
)

// sampleLines returns real event lines from a synthetic stream: a
// worker carrying a 40-value history, and a request.
func sampleLines(tb testing.TB) (worker, request []byte) {
	tb.Helper()
	s, err := crossmatch.GenerateSynthetic(400, 400, 1.0, "real", 42)
	if err != nil {
		tb.Fatalf("GenerateSynthetic: %v", err)
	}
	for _, ev := range s.Events() {
		isWorker := ev.Kind == core.WorkerArrival
		if (isWorker && worker != nil) || (!isWorker && request != nil) ||
			(isWorker && len(ev.Worker.History) != 40) {
			continue
		}
		line, err := json.Marshal(EventToWire(ev))
		if err != nil {
			tb.Fatalf("encoding event: %v", err)
		}
		if isWorker {
			worker = line
		} else {
			request = line
		}
	}
	if worker == nil || request == nil {
		tb.Fatal("synthetic stream lacks a 40-value worker or a request")
	}
	return worker, request
}

// sameFloat compares bit patterns, so -0 ≠ 0 and NaN = NaN.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzDecodeEvent: the hand-rolled decoder must agree with the
// reference decoder on accept/reject, on the error text, and on every
// decoded field, bit for bit.
func FuzzDecodeEvent(f *testing.F) {
	worker, request := sampleLines(f)
	for _, seed := range [][]byte{
		worker, request,
		[]byte(`{"ID":1,"X":2,"Y":3,"Platform":1,"VALUE":4}`),
		[]byte(`{"id":1,"value":3} garbage`),
		[]byte(`{"id":1,"value":3}{"id":2}`),
		[]byte(`{"id":1,"history":[],"history":[1e-7,-0,2E+3]}`),
		[]byte(`{"x":1}`),
		[]byte(`{"id":1.5}`),
		[]byte(`{"platform":3000000000}`),
		[]byte(`{"x":1e400}`),
		[]byte(`{"x":01}`),
		[]byte(`{"x":null}`),
		[]byte(`{"bogus":2}`),
		[]byte(`null`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		hist := []float64{7, 7, 7} // dirty scratch: reuse must not leak
		var got, want WireEvent
		gotErr := decodeEvent(line, &got, &hist)
		wantErr := unmarshalStrict(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeEvent err %v, reference err %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, reference %q", line, gotErr, wantErr)
			}
			return
		}
		if got.ID != want.ID || got.Platform != want.Platform || got.Arrival != want.Arrival ||
			!sameFloat(got.X, want.X) || !sameFloat(got.Y, want.Y) ||
			!sameFloat(got.Value, want.Value) || !sameFloat(got.Radius, want.Radius) {
			t.Fatalf("%q: decoded %+v, reference %+v", line, got, want)
		}
		if (got.History == nil) != (want.History == nil) || len(got.History) != len(want.History) {
			t.Fatalf("%q: history %v, reference %v", line, got.History, want.History)
		}
		for i := range got.History {
			if !sameFloat(got.History[i], want.History[i]) {
				t.Fatalf("%q: history[%d] = %v, reference %v", line, i, got.History[i], want.History[i])
			}
		}
	})
}

// TestScanEventDecidesCommonLines: the real wire lines must take the
// fast path, or the decoder's speed rests on nothing.
func TestScanEventDecidesCommonLines(t *testing.T) {
	worker, request := sampleLines(t)
	var hist []float64
	for _, line := range [][]byte{worker, request, []byte(`{}`), []byte(` { "X" : -0.5e-3 , "history" : [ ] } `)} {
		var we WireEvent
		if !scanEvent(line, &we, &hist) {
			t.Errorf("fast path left %s undecided", line)
		}
	}
}

// FuzzAppendDecision: every decision line must be byte-identical to
// what json.Encoder writes.
func FuzzAppendDecision(f *testing.F) {
	worker, request := sampleLines(f)
	var w, r WireEvent
	if err := unmarshalStrict(worker, &w); err != nil {
		f.Fatal(err)
	}
	if err := unmarshalStrict(request, &r); err != nil {
		f.Fatal(err)
	}
	f.Add(StatusOK, "worker", w.ID, w.Arrival, "", false, "", int64(0), int32(0), false, 0.0, 0.0, int64(0), "")
	f.Add(StatusOK, "request", r.ID, r.Arrival, "shard-a", true, "served", w.ID, w.Platform, true,
		r.Value*0.7, r.Value*0.3, int64(0), "")
	f.Add(StatusShed, "request", r.ID, int64(0), "", false, "", int64(0), int32(0), false, 0.0, 0.0, int64(25), "rate limit")
	f.Add(StatusError, "", int64(-1), int64(0), "<s&h>", false, "a b\x00\x1f\"\\", int64(0), int32(-2), false,
		1e-7, 1e21, int64(0), "bad event: invalid character 'g' after top-level value \xff\t\n\r\b\f")
	f.Fuzz(func(t *testing.T, status, kind string, id, vtime int64, shard string, served bool, reason string,
		workerID int64, workerPlatform int32, outer bool, payment, revenue float64, retry int64, errText string) {
		d := WireDecision{Status: status, Kind: kind, ID: id, VTime: vtime, Shard: shard, Served: served,
			Reason: reason, WorkerID: workerID, WorkerPlatform: workerPlatform, Outer: outer,
			Payment: payment, Revenue: revenue, RetryAfterMs: retry, Error: errText}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&d); err != nil {
			t.Skip("encoding/json refuses non-finite floats; the engine never produces them")
		}
		if got := appendDecision(nil, &d); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendDecision:\n got %q\nwant %q", got, want.Bytes())
		}
	})
}

func TestSplitLines(t *testing.T) {
	body := []byte(" a \n\n\tb\r\n   \nc")
	lines := SplitLines(nil, body)
	if len(lines) != 3 || string(lines[0]) != "a" || string(lines[1]) != "b" || string(lines[2]) != "c" {
		t.Fatalf("SplitLines = %q", lines)
	}
	// Lines alias the body but are capped: appending to one must not
	// overwrite the next.
	_ = append(lines[0], 'X')
	if string(lines[1]) != "b" || &lines[0][0] != &body[1] {
		t.Fatalf("lines not capped aliases of the body: %q", lines)
	}
}

// BenchmarkDecodeEvent is the "serve decode" layer rung: one real
// event line per op, with the reference decoder beside it for scale.
// Run with -benchmem.
func BenchmarkDecodeEvent(b *testing.B) {
	worker, request := sampleLines(b)
	for _, bc := range []struct {
		name string
		line []byte
		ref  bool
	}{
		{"worker", worker, false},
		{"request", request, false},
		{"worker/reference", worker, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var hist []float64
			var we WireEvent
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.line)))
			for i := 0; i < b.N; i++ {
				var err error
				if bc.ref {
					err = unmarshalStrict(bc.line, &we)
				} else {
					err = decodeEvent(bc.line, &we, &hist)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
