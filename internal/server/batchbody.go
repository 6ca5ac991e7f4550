package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// DecodeBatchQuery reads a POST /batch-query body once, under the caller's
// MaxBytesReader bound, and decodes it for the shard and the router alike.
// The shape every client in this repository sends, json.Marshal of a
// BatchQueryRequest, is scanned in one pass without reflection; any other
// body goes to encoding/json, the reference for what a body means and how
// it is refused. Errors are the handler's 400 text.
func DecodeBatchQuery(r *http.Request) (BatchQueryRequest, error) {
	// Presized from Content-Length, capped: a client must not make the
	// server reserve memory before the bytes arrive.
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), 1<<20)) + bytes.MinRead)
	_, rerr := buf.ReadFrom(r.Body)
	var req BatchQueryRequest
	if rerr == nil && scanBatchQuery(buf.Bytes(), &req) {
		return req, nil
	}
	// After a failed read, encoding/json sees what reading the body itself
	// would have shown it: the bytes that arrived, then the error.
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var ref BatchQueryRequest // apart from req, which then stays off the heap
	if err := json.NewDecoder(src).Decode(&ref); err != nil {
		return ref, fmt.Errorf("bad body: %w", err)
	}
	return ref, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanBatchQuery decodes body into req when it has the plain shape of
// json.Marshal(BatchQueryRequest), and reports whether it did. It refuses,
// never guesses, what encoding/json might read otherwise: a key other than
// the known ones in their exact spelling (encoding/json case-folds keys); a
// second "queries" (merged into the first vector); a string with an escape
// or a byte outside printable ASCII; an integer with a fraction, an
// exponent or over 18 digits; a "fail" other than [int,int] (truncated or
// zero-filled); and null (a field left unchanged). Any other repeated key
// takes its last value in both. Like json.Decoder.Decode it stops at the
// top-level closing brace. The pointer fields point into per-vector slabs.
func scanBatchQuery(body []byte, req *BatchQueryRequest) bool {
	// A '{' opens every object: capped, as only a well-formed body bounds it.
	s := batchScanner{b: body, est: min(bytes.Count(body, []byte{'{'}), 4096)}
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "graph":
			return s.str(&req.Graph)
		case "source":
			return s.integer(&req.Source)
		case "eps":
			return s.float(&req.Eps)
		case "alg":
			return s.str(&req.Alg)
		case "queries":
			return req.Queries == nil && s.queries(&req.Queries)
		}
		return false
	})
}

// batchScanner is scanBatchQuery's cursor plus the vector's pointer slabs.
type batchScanner struct {
	b      []byte
	i      int
	est    int // upper bound on the vector length, capped
	ints   []int
	floats []float64
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
		key, ok := s.raw()
		if !ok || !s.take(':') || !member(key) {
			return false
		}
		if !s.take(',') {
			return s.take('}')
		}
	}
}

// raw scans a string of unescaped printable ASCII and returns its bytes.
func (s *batchScanner) raw() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		if c := s.b[j]; c == '"' {
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		} else if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// str scans a string into dst.
func (s *batchScanner) str(dst *string) bool {
	b, ok := s.raw()
	*dst = string(b)
	return ok
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
	d := s.digits(s.i)
	if d == 0 || d > 18 || d > 1 && s.b[s.i] == '0' {
		return false
	}
	var n int64
	for _, c := range s.b[s.i : s.i+d] {
		n = n*10 + int64(c-'0')
	}
	s.i += d
	*dst = int(sign * n)
	return int64(*dst) == sign*n // false beyond this platform's int
}

// float scans any JSON number into the float slab. A number ParseFloat
// refuses as out of range is refused: encoding/json reports it.
func (s *batchScanner) float(dst **float64) bool {
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
	*dst = slabPtr(&s.floats, f, s.est+1)
	return ok && err == nil
}

// slabPtr stores x in the slab and returns a pointer to it. A full slab is
// replaced, not grown: the pointers already handed out keep the old backing
// array alive.
func slabPtr[T any](slab *[]T, x T, size int) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, max(size, 2*cap(*slab), 16))
	}
	*slab = append(*slab, x)
	return &(*slab)[len(*slab)-1]
}

// queries scans the vector: an array of BatchQuery objects.
func (s *batchScanner) queries(dst *[]BatchQuery) bool {
	if !s.take('[') {
		return false
	}
	*dst = make([]BatchQuery, 0, s.est)
	if s.take(']') {
		return true
	}
	for {
		*dst = append(*dst, BatchQuery{})
		q := &(*dst)[len(*dst)-1]
		ok := s.object(func(key []byte) bool {
			switch string(key) {
			case "graph":
				return s.str(&q.Graph)
			case "source":
				q.Source = slabPtr(&s.ints, 0, 2*s.est)
				return s.integer(q.Source)
			case "eps":
				return s.float(&q.Eps)
			case "alg":
				return s.str(&q.Alg)
			case "v":
				return s.integer(&q.V)
			case "fail":
				return s.take('[') && s.integer(&q.Fail[0]) && s.take(',') && s.integer(&q.Fail[1]) && s.take(']')
			case "failedVertex":
				q.FailedVertex = slabPtr(&s.ints, 0, 2*s.est)
				return s.integer(q.FailedVertex)
			}
			return false
		})
		if !ok {
			return false
		}
		if !s.take(',') {
			return s.take(']')
		}
	}
}
