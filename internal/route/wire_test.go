package route

import (
	"encoding/json"
	"math"
	"testing"

	"crossmatch"
	"crossmatch/internal/core"
	"crossmatch/internal/serve"
)

// TestScanPointAgreesWithDecoder is the contract that keeps the fast
// dispatch path honest: for any line the scanner accepts, its x/y must
// equal what the strict decoder produces — a disagreement would route
// an event to a different shard than the splitter assigned it.
func TestScanPointAgreesWithDecoder(t *testing.T) {
	lines := []string{
		`{"id":"w-1","kind":"worker","x":1.5,"y":2.25,"radius":1,"platform":1}`,
		`{"x":-3.5,"y":4e2}`,
		`{"y":7,"x":9}`,
		`{"id":"r-1","value":10.5}`, // no coordinates: both default to 0
		`{}`,
		`{"id":"tricky \"x\": 99","x":1,"y":2}`,
		`{"id":"contains \"x\":123 and \"y\":456","x":5,"y":6}`,
		`{"meta":{"x":99,"y":88},"x":1,"y":2}`,
		`{"tags":["x","y",{"x":77}],"x":3,"y":4}`,
		`  { "x" : 2.5 , "y" : 3.5 }  `,
		`{"a":null,"b":true,"c":false,"x":1e-2,"y":-0.5}`,
		`{"X":5,"y":2}`, // keys match case-insensitively, as in the decoder
		`{"x":1,"Y":2,"y":3}`,
	}
	for _, line := range lines {
		x, y, ok := scanPoint([]byte(line))
		if !ok {
			t.Errorf("scanPoint rejected valid line %s", line)
			continue
		}
		var pt wirePoint
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("decoder rejected %s: %v", line, err)
		}
		if x != pt.X || y != pt.Y {
			t.Errorf("scanPoint(%s) = (%v,%v), decoder says (%v,%v)", line, x, y, pt.X, pt.Y)
		}
	}
}

// TestScanPointRejectsMalformed: structurally surprising input must
// fall back (ok=false), never silently misparse.
func TestScanPointRejectsMalformed(t *testing.T) {
	lines := []string{
		``,
		`not json`,
		`[1,2,3]`,
		`{"x":1`,
		`{"x"}`,
		`{"x":"str","y":2}`, // string where dispatch expects a number
		`{"x":1,}`,
		`{"unterminated":"`,
		`{"x":1,"y":2} garbage`,
		`{"x":1,"y":2}{"x":3}`,
		`{"a":tru,"x":1}`,
		`{"a":"\q","x":1}`,
		`{"x":+1}`,
		`{"x":01}`,
		`{"x":1.}`,
	}
	for _, line := range lines {
		if _, _, ok := scanPoint([]byte(line)); ok {
			t.Errorf("scanPoint accepted malformed line %q", line)
		}
	}
	// Valid lines the scan leaves to the decoder: keys the decoder
	// matches after unescaping or Unicode case folding.
	for _, line := range []string{`{"\u0078":5}`, `{"\u00e9":1,"x":2}`, `{"é":1,"x":2}`} {
		if _, _, ok := scanPoint([]byte(line)); ok {
			t.Errorf("scanPoint decided %q, which it must leave to the decoder", line)
		}
	}
}

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
		line, err := json.Marshal(serve.EventToWire(ev))
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

// FuzzScanPoint: whatever line the scanner decides, the decoder must
// accept, with the same coordinates bit for bit — a disagreement routes
// an event to a shard that does not own its cell.
func FuzzScanPoint(f *testing.F) {
	worker, request := sampleLines(f)
	for _, seed := range []string{string(worker), string(request), `{"X":5,"y":2}`,
		`{"x":1} x`, `{"meta":{"x":[1,{"y":2}]},"x":1e-7}`, `{"\u0079":3}`, `{"x":null}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		x, y, ok := scanPoint(line)
		if !ok {
			return
		}
		var pt wirePoint
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatalf("scanPoint decided %q, decoder rejects it: %v", line, err)
		}
		if math.Float64bits(x) != math.Float64bits(pt.X) || math.Float64bits(y) != math.Float64bits(pt.Y) {
			t.Fatalf("scanPoint(%q) = (%v,%v), decoder says (%v,%v)", line, x, y, pt.X, pt.Y)
		}
	})
}

func TestAppendStamped(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"status":"ok","id":"w-1"}`, `{"status":"ok","id":"w-1","shard":"s1"}`},
		{`{}`, `{"shard":"s1"}`},
		{`x`, `x`},         // not an object: untouched
		{``, ``},           // empty: untouched
		{`[1,2]`, `[1,2]`}, // not "}"-terminated... it is not an object
	}
	for _, c := range cases {
		got := string(appendStamped(nil, []byte(c.in), "s1"))
		if got != c.want {
			t.Errorf("appendStamped(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Stamped output must stay valid JSON that a strict client accepts.
	var d struct {
		Shard string `json:"shard"`
	}
	out := appendStamped(nil, []byte(`{"status":"ok"}`), "s7")
	if err := json.Unmarshal(out, &d); err != nil || d.Shard != "s7" {
		t.Fatalf("stamped line %s not decodable: %v", out, err)
	}
}

func TestLineStatus(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"status":"ok","id":"w-1"}`, "ok"},
		{`{"status":"shed","retry_after_ms":5}`, "shed"},
		{` {"status":"recovering"}`, "recovering"}, // prefix miss → decoder fallback
		{`{"id":"w-1","status":"duplicate"}`, "duplicate"},
		{`garbage`, ""},
	}
	for _, c := range cases {
		if got := lineStatus([]byte(c.in)); got != c.want {
			t.Errorf("lineStatus(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// BenchmarkScanPoint guards the scanner's reason to exist: it must be
// roughly an order of magnitude cheaper than encoding/json on the same
// line.
func BenchmarkScanPoint(b *testing.B) {
	line := []byte(`{"id":"w-123","kind":"worker","x":42.5,"y":17.25,"radius":1.5,"platform":2}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := scanPoint(line); !ok {
			b.Fatal("scanPoint rejected benchmark line")
		}
	}
}
