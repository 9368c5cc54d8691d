package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/jsonscan"
	"crossmatch/internal/platform"
)

// WireEvent is the JSON wire form of one arrival, posted to
// /v1/requests or /v1/workers (the endpoint supplies the kind). In
// live mode the server assigns the ID when it is zero and stamps the
// arrival tick from its virtual clock; the Arrival field is accepted
// but ignored. In replay mode only the ID matters — it names an event
// of the recorded stream, and the recorded fields are authoritative.
type WireEvent struct {
	ID       int64     `json:"id,omitempty"`
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Platform int32     `json:"platform"`
	Value    float64   `json:"value,omitempty"`   // requests: payment value v
	Radius   float64   `json:"radius,omitempty"`  // workers: service radius
	History  []float64 `json:"history,omitempty"` // workers: past request values
	Arrival  int64     `json:"arrival,omitempty"` // informational; server stamps virtual time
}

// Outcome status values carried by WireDecision.Status.
const (
	// StatusOK — the event was sequenced and decided.
	StatusOK = "ok"
	// StatusShed — admission control refused the event (token bucket or
	// full ingest queue); retry after RetryAfterMs.
	StatusShed = "shed"
	// StatusDraining — the server is shutting down and no longer admits
	// events.
	StatusDraining = "draining"
	// StatusRecovering — the server is live but not ready: WAL recovery
	// is still re-driving the log and no events are admitted until the
	// digest verify passes. Retry after RetryAfterMs.
	StatusRecovering = "recovering"
	// StatusUnavailable — the event could not be served by its owner
	// (recovery failed, or a fleet router found the owning shard dark).
	// Retry after RetryAfterMs.
	StatusUnavailable = "unavailable"
	// StatusDeadline — the event was admitted but its decision did not
	// return within the per-request deadline. The event is still in the
	// sequencer's order and will be applied; only this response gave up.
	StatusDeadline = "deadline"
	// StatusUnknown — replay mode: the ID names no event of the
	// recorded stream.
	StatusUnknown = "unknown"
	// StatusDuplicate — replay mode: the event was already delivered.
	StatusDuplicate = "duplicate"
	// StatusError — the event was malformed or the engine rejected it.
	StatusError = "error"
)

// WireDecision is the per-event response line: the admission outcome,
// and for sequenced request arrivals the synchronous match decision
// (assigned worker, payment, revenue, outcome reason).
type WireDecision struct {
	Status string `json:"status"`
	Kind   string `json:"kind,omitempty"` // "request" or "worker"
	ID     int64  `json:"id,omitempty"`
	VTime  int64  `json:"vtime,omitempty"` // virtual arrival tick stamped by the sequencer
	// Shard names the serving shard that produced this line. Empty on
	// direct comserve responses; a fleet router (cmd/comroute) stamps it
	// so clients can attribute outcomes per shard.
	Shard string `json:"shard,omitempty"`
	// Decision fields, request arrivals only.
	Served         bool    `json:"served,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	WorkerID       int64   `json:"worker,omitempty"`
	WorkerPlatform int32   `json:"worker_platform,omitempty"`
	Outer          bool    `json:"outer,omitempty"`
	Payment        float64 `json:"payment,omitempty"`
	Revenue        float64 `json:"revenue,omitempty"`
	// Flow control and errors.
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Error        string `json:"error,omitempty"`
}

// httpStatus maps an outcome to the HTTP code used for single-object
// posts (batch posts always answer 200 with per-line statuses).
func (d *WireDecision) httpStatus() int { return HTTPStatus(d.Status) }

// HTTPStatus maps a WireDecision status to the HTTP code single-object
// posts answer with. Exported so the fleet router mirrors shard
// semantics exactly when it synthesizes single-object responses.
func HTTPStatus(status string) int {
	switch status {
	case StatusOK:
		return http.StatusOK
	case StatusShed:
		return http.StatusTooManyRequests
	case StatusDraining, StatusRecovering, StatusUnavailable:
		return http.StatusServiceUnavailable
	case StatusDeadline:
		return http.StatusGatewayTimeout
	case StatusUnknown:
		return http.StatusNotFound
	case StatusDuplicate:
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func kindName(k core.EventKind) string {
	if k == core.WorkerArrival {
		return "worker"
	}
	return "request"
}

// toEvent builds the domain event for live mode. The arrival tick is
// stamped later by the sequencer; validation of the stamped event
// happens in Engine.Process via the matcher path, so only structural
// errors are caught here. The event outlives the decode scratch that
// we.History may alias, so the worker gets its own copy, at its exact
// length.
func (we *WireEvent) toEvent(kind core.EventKind) (core.Event, error) {
	loc := geo.Point{X: we.X, Y: we.Y}
	switch kind {
	case core.WorkerArrival:
		if we.Radius <= 0 {
			return core.Event{}, fmt.Errorf("worker %d: radius %v must be positive", we.ID, we.Radius)
		}
		var hist []float64
		if we.History != nil {
			hist = make([]float64, len(we.History))
			copy(hist, we.History)
		}
		w := &core.Worker{ID: we.ID, Loc: loc, Radius: we.Radius,
			Platform: core.PlatformID(we.Platform), History: hist}
		return core.Event{Kind: kind, Worker: w}, nil
	default:
		if we.Value <= 0 {
			return core.Event{}, fmt.Errorf("request %d: value %v must be positive", we.ID, we.Value)
		}
		r := &core.Request{ID: we.ID, Loc: loc, Value: we.Value,
			Platform: core.PlatformID(we.Platform)}
		return core.Event{Kind: kind, Request: r}, nil
	}
}

// EventToWire converts a domain event to its wire form — what the load
// generator posts when replaying a recorded stream.
func EventToWire(ev core.Event) WireEvent {
	switch ev.Kind {
	case core.WorkerArrival:
		w := ev.Worker
		return WireEvent{ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Platform: int32(w.Platform),
			Radius: w.Radius, History: w.History, Arrival: int64(w.Arrival)}
	default:
		r := ev.Request
		return WireEvent{ID: r.ID, X: r.Loc.X, Y: r.Loc.Y, Platform: int32(r.Platform),
			Value: r.Value, Arrival: int64(r.Arrival)}
	}
}

// decisionLine builds the OK response line for a sequenced event.
func decisionLine(kind core.EventKind, id, vtime int64, d platform.RequestDecision) WireDecision {
	out := WireDecision{Status: StatusOK, Kind: kindName(kind), ID: id, VTime: vtime}
	if kind != core.RequestArrival {
		return out
	}
	out.Served = d.Served
	out.Reason = string(d.Reason)
	if d.Served {
		out.WorkerID = d.Worker.ID
		out.WorkerPlatform = int32(d.Worker.Platform)
		out.Outer = d.Outer
		out.Payment = d.Payment
		out.Revenue = d.Revenue
	}
	return out
}

// SplitLines appends the non-empty, whitespace-trimmed lines of an
// NDJSON body to dst. The lines alias body (nothing is copied); each is
// capped at its own length, so appending to one cannot overwrite the
// next.
func SplitLines(dst [][]byte, body []byte) [][]byte {
	nl := []byte{'\n'}
	dst = slices.Grow(dst, bytes.Count(body, nl)+1)
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, nl)
		if t := bytes.TrimSpace(line); len(t) > 0 {
			dst = append(dst, t[:len(t):len(t)])
		}
	}
	return dst
}

// unmarshalStrict is the reference decoder: one JSON value, unknown
// fields rejected (typos in hand-written payloads fail loudly instead of
// silently zeroing), and nothing but whitespace after it — a second
// object on the same line is an error, not a silently dropped event.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := data[dec.InputOffset():]
	if i := jsonscan.Space(rest, 0); i < len(rest) {
		return fmt.Errorf("invalid character %q after top-level value", rest[i])
	}
	return nil
}

// decodeEvent decodes one event line into we, with exactly
// unmarshalStrict's outcome: the same accepted values, or the same
// error. The common line — an object with plain ASCII keys and numeric
// values — is scanned in one pass without allocating; anything the
// scan does not fully decide goes to the reference decoder. A decoded
// History aliases *hist, which is reused from line to line: callers
// that keep the event must copy it (toEvent does).
func decodeEvent(line []byte, we *WireEvent, hist *[]float64) error {
	if scanEvent(line, we, hist) {
		return nil
	}
	// Decoding into a fresh value keeps we itself off the heap: the
	// reference decoder's interface argument escapes.
	ref := new(WireEvent)
	err := unmarshalStrict(line, ref)
	*we = *ref
	return err
}

// scanEvent is decodeEvent's fast path. It reports false — undecided,
// not invalid — on anything but known keys (matched as encoding/json
// does, ignoring ASCII case) with in-range JSON numbers.
func scanEvent(line []byte, we *WireEvent, hist *[]float64) bool {
	*we = WireEvent{}
	return jsonscan.Line(line, func(key []byte, i int) int {
		var end int
		switch {
		case jsonscan.FoldEq(key, "x"):
			we.X, end = jsonscan.Float(line, i)
		case jsonscan.FoldEq(key, "y"):
			we.Y, end = jsonscan.Float(line, i)
		case jsonscan.FoldEq(key, "id"):
			we.ID, end = jsonscan.Int(line, i, 64)
		case jsonscan.FoldEq(key, "platform"):
			var p int64
			p, end = jsonscan.Int(line, i, 32)
			we.Platform = int32(p)
		case jsonscan.FoldEq(key, "value"):
			we.Value, end = jsonscan.Float(line, i)
		case jsonscan.FoldEq(key, "radius"):
			we.Radius, end = jsonscan.Float(line, i)
		case jsonscan.FoldEq(key, "arrival"):
			we.Arrival, end = jsonscan.Int(line, i, 64)
		case jsonscan.FoldEq(key, "history"):
			// encoding/json decodes [] to an empty, non-nil slice.
			h := (*hist)[:0]
			if h == nil {
				h = make([]float64, 0, 64)
			}
			end = jsonscan.Array(line, i, func(j int) int {
				v, e := jsonscan.Float(line, j)
				h = append(h, v)
				return e
			})
			*hist, we.History = h, h
		default:
			return -1 // unknown field: the reference decoder names it
		}
		return end
	})
}

// appendDecision appends d's NDJSON line to dst: byte for byte what
// json.NewEncoder(w).Encode(d) writes, trailing newline included
// (omitempty, float formatting, HTML-safe string escaping).
// Payment and Revenue must be finite, as the engine's always are;
// encoding/json refuses non-finite floats outright.
func appendDecision(dst []byte, d *WireDecision) []byte {
	dst = appendStringField(append(dst, '{'), `"status":`, d.Status, true)
	dst = appendStringField(dst, `,"kind":`, d.Kind, false)
	dst = appendIntField(dst, `,"id":`, d.ID)
	dst = appendIntField(dst, `,"vtime":`, d.VTime)
	dst = appendStringField(dst, `,"shard":`, d.Shard, false)
	if d.Served {
		dst = append(dst, `,"served":true`...)
	}
	dst = appendStringField(dst, `,"reason":`, d.Reason, false)
	dst = appendIntField(dst, `,"worker":`, d.WorkerID)
	dst = appendIntField(dst, `,"worker_platform":`, int64(d.WorkerPlatform))
	if d.Outer {
		dst = append(dst, `,"outer":true`...)
	}
	dst = appendFloatField(dst, `,"payment":`, d.Payment)
	dst = appendFloatField(dst, `,"revenue":`, d.Revenue)
	dst = appendIntField(dst, `,"retry_after_ms":`, d.RetryAfterMs)
	dst = appendStringField(dst, `,"error":`, d.Error, false)
	return append(dst, '}', '\n')
}

func appendIntField(dst []byte, name string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, name...), v, 10)
}

// appendFloatField formats like encoding/json: the shortest
// representation, in exponent form only outside [1e-6, 1e21), and with
// a single-digit negative exponent unpadded (e-7, not e-07).
func appendFloatField(dst []byte, name string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, name...)
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendStringField writes a string the way encoding/json does with
// HTML escaping on: `"`, `\`, `<`, `>`, `&`, control bytes, invalid
// UTF-8, U+2028 and U+2029 are escaped.
func appendStringField(dst []byte, name, s string, always bool) []byte {
	if s == "" && !always {
		return dst
	}
	const hex = "0123456789abcdef"
	dst = append(append(dst, name...), '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// writeDecision answers a single-object post: the outcome's HTTP code
// and its decision line.
func writeDecision(w http.ResponseWriter, code int, d *WireDecision) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendDecision(nil, d))
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
