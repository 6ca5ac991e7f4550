package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// DecodeBatchQuery reads a POST /batch-query body once, under the caller's
// MaxBytesReader bound, and decodes it, for the shard and the router alike,
// into the vector's wire form: each slot's registry key, its wire slot and
// its per-slot error, exactly as BatchQueryRequest.Wire gives them. The
// shape every client in this repository sends, json.Marshal of a
// BatchQueryRequest, is scanned straight into that form in one pass without
// reflection; any other body goes to encoding/json and Wire, the reference
// for what a body means and how it is refused. Errors are the handler's 400
// text.
func DecodeBatchQuery(r *http.Request) ([]store.Key, []wire.BatchSlot, []string, error) {
	// Presized from Content-Length, capped: a client must not make the
	// server reserve memory before the bytes arrive.
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), 1<<20)) + bytes.MinRead)
	_, rerr := buf.ReadFrom(r.Body)
	if rerr == nil {
		if keys, slots, errs, ok := scanBatchQuery(buf.Bytes()); ok {
			return keys, slots, errs, nil
		}
	}
	// After a failed read, encoding/json sees what reading the body itself
	// would have shown it: the bytes that arrived, then the error.
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var req BatchQueryRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return nil, nil, nil, fmt.Errorf("bad body: %w", err)
	}
	keys, slots, errs := req.Wire()
	return keys, slots, errs, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanBatchQuery decodes body into the vector's wire form when it has the
// plain shape of json.Marshal(BatchQueryRequest), and reports whether it
// did. It refuses, never guesses, what encoding/json might read otherwise: a
// key other than the known ones in their exact spelling (encoding/json
// case-folds keys); a key after "queries" (a default the slots before it
// would miss) and so a second "queries" (merged into the first vector); a
// string with an escape or a byte outside printable ASCII; an integer with a
// fraction, an exponent or over 18 digits; a "fail" other than [int,int]
// (truncated or zero-filled); and null (a field left unchanged). Any other
// repeated key takes its last value in both. Like json.Decoder.Decode it
// stops at the top-level closing brace.
func scanBatchQuery(body []byte) ([]store.Key, []wire.BatchSlot, []string, bool) {
	// A '{' opens every object: capped, as only a well-formed body bounds it.
	s := batchScanner{b: body, est: min(bytes.Count(body, []byte{'{'}), 4096), eps: DefaultEps}
	done := false
	ok := s.object(func(key []byte) bool {
		if done {
			return false
		}
		switch string(key) {
		case "graph":
			return s.raw(&s.graph)
		case "source":
			return s.integer(&s.source)
		case "eps":
			return s.float(&s.eps)
		case "alg":
			return s.raw(&s.alg)
		case "queries":
			done = true
			return s.queries()
		}
		return false
	})
	return s.keys, s.slots, s.errs, ok
}

// batchScanner is scanBatchQuery's cursor, the request's defaults, and the
// vector it fills.
type batchScanner struct {
	b   []byte
	i   int
	est int // upper bound on the vector length, capped

	// The request's defaults, the graph parsed once the vector starts.
	graph, alg []byte
	source     int
	eps        float64
	defFP      uint64
	defErr     error

	keys  []store.Key
	slots []wire.BatchSlot
	errs  []string
}

// ws skips JSON whitespace.
func (s *batchScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// take consumes c, after any whitespace, and reports whether it was there.
func (s *batchScanner) take(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans one object, handing each key to member, which scans the
// value and reports whether it took it.
func (s *batchScanner) object(member func(key []byte) bool) bool {
	if !s.take('{') {
		return false
	}
	if s.take('}') {
		return true
	}
	for {
		var key []byte
		if !s.raw(&key) || !s.take(':') || !member(key) {
			return false
		}
		if !s.take(',') {
			return s.take('}')
		}
	}
}

// raw scans a string of unescaped printable ASCII into dst, which points
// into the body.
func (s *batchScanner) raw(dst *[]byte) bool {
	if !s.take('"') {
		return false
	}
	for j := s.i; j < len(s.b); j++ {
		if c := s.b[j]; c == '"' {
			*dst = s.b[s.i:j]
			s.i = j + 1
			return true
		} else if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return false
}

// digits counts the ASCII digits starting at j.
func (s *batchScanner) digits(j int) int {
	k := j
	for k < len(s.b) && s.b[k] >= '0' && s.b[k] <= '9' {
		k++
	}
	return k - j
}

// integer scans a plain integer into dst: -?digits with no leading zero and
// at most 18 digits, so it cannot overflow. The caller refuses a fraction or
// an exponent, which encoding/json refuses for an int field, as the byte
// after the value.
func (s *batchScanner) integer(dst *int) bool {
	s.ws()
	sign := int64(1)
	if s.i < len(s.b) && s.b[s.i] == '-' {
		sign, s.i = -1, s.i+1
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && s.i-start < 19 {
		c := s.b[s.i] - '0'
		if c > 9 {
			break
		}
		n = n*10 + int64(c)
		s.i++
	}
	if d := s.i - start; d == 0 || d > 18 || d > 1 && s.b[start] == '0' {
		return false
	}
	*dst = int(sign * n)
	return int64(*dst) == sign*n // false beyond this platform's int
}

// float scans any JSON number into dst. A number ParseFloat refuses as out
// of range is refused: encoding/json reports it.
func (s *batchScanner) float(dst *float64) bool {
	s.ws()
	j := s.i
	if j < len(s.b) && s.b[j] == '-' {
		j++
	}
	d := s.digits(j)
	ok := d == 1 || d > 1 && s.b[j] != '0'
	j += d
	if ok && j < len(s.b) && s.b[j] == '.' {
		d = s.digits(j + 1)
		ok, j = d > 0, j+1+d
	}
	if ok && j < len(s.b) && (s.b[j] == 'e' || s.b[j] == 'E') {
		if j++; j < len(s.b) && (s.b[j] == '+' || s.b[j] == '-') {
			j++
		}
		d = s.digits(j)
		ok, j = d > 0, j+d
	}
	f, err := strconv.ParseFloat(string(s.b[s.i:j]), 64)
	s.i = j
	*dst = f
	return ok && err == nil
}

// queries scans the vector, an array of BatchQuery objects, framing each
// slot as it closes.
func (s *batchScanner) queries() bool {
	if !s.take('[') {
		return false
	}
	s.defFP, s.defErr = parseGraph(string(s.graph))
	s.keys = make([]store.Key, 0, s.est)
	s.slots = make([]wire.BatchSlot, 0, s.est)
	s.errs = make([]string, 0, s.est)
	if s.take(']') {
		return true
	}
	for {
		// The slot's address starts as the request's defaults.
		var graph []byte
		alg, source, eps, vertex := s.alg, s.source, s.eps, false
		var v, fv int
		var fail [2]int
		ok := s.object(func(key []byte) bool {
			switch string(key) {
			case "graph":
				return s.raw(&graph)
			case "source":
				return s.integer(&source)
			case "eps":
				return s.float(&eps)
			case "alg":
				return s.raw(&alg)
			case "v":
				return s.integer(&v)
			case "fail":
				return s.take('[') && s.integer(&fail[0]) && s.take(',') && s.integer(&fail[1]) && s.take(']')
			case "failedVertex":
				vertex = true
				return s.integer(&fv)
			}
			return false
		})
		if !ok {
			return false
		}
		fp, err := s.defFP, s.defErr
		if len(graph) > 0 {
			fp, err = parseGraph(string(graph))
		}
		if len(alg) == 0 {
			alg = s.alg // an empty "alg" means the request's, as in keyFor
		}
		k, kerr := addrKey(fp, err, source, &eps, string(alg), vertex)
		s.keys = append(s.keys, k)
		s.slots = append(s.slots, wire.BatchSlot{})
		s.errs = append(s.errs, frameSlot(&s.slots[len(s.slots)-1], &k, kerr, v, fail, fv))
		if !s.take(',') {
			return s.take(']')
		}
	}
}
