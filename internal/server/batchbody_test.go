package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"

	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// decodeSeeds are bodies encoding/json reads in ways a naive scanner would
// not, plus the malformed shapes a decoder must refuse with the same text.
var decodeSeeds = []string{
	`{"graph":"00000000000000ff","eps":0.3,"queries":[{"v":1,"fail":[4,5]},{"source":2,"v":3,"failedVertex":7}]}`,
	// A repeated "queries" merges into the first vector's elements.
	`{"queries":[{"v":1,"fail":[4,5]}],"queries":[{"v":2}]}`,
	// Repeated scalar keys, at both levels, take their last value.
	`{"graph":"a","graph":"b","queries":[{"v":1,"v":2}]}`,
	`{"eps":0.1,"source":1,"eps":0.2,"source":2,"alg":"x","alg":"y","queries":[{"source":1,"source":2,"eps":1,"eps":2,"failedVertex":1,"failedVertex":2,"fail":[1,2],"fail":[3,4],"graph":"g","graph":"h"}]}`,
	// Keys match by Unicode case folding.
	`{"queries":[{"V":3,"fail":[1,2]}]}`,
	`{"ſource":4,"queries":[{"v":3,"FAIL":[1,2]}]}`,
	`{"Graph":"00","queries":[{"failedvertex":3,"v":1}]}`,
	// "fail" truncates or zero-fills.
	`{"queries":[{"v":1,"fail":[1,2,3]}]}`,
	`{"queries":[{"v":1,"fail":[1]}]}`,
	`{"queries":[{"v":1,"fail":[]}]}`,
	// A fraction or exponent into an int field is an error.
	`{"queries":[{"v":1.0,"fail":[1,2]}]}`,
	`{"queries":[{"v":1e2}]}`,
	`{"source":2.5,"queries":[{"v":1}]}`,
	// null leaves a field unchanged or sets a pointer to nil.
	`{"graph":null,"eps":null,"queries":[{"source":null,"eps":null,"v":null,"fail":null,"failedVertex":null}]}`,
	`{"queries":null}`,
	`{"queries":[null]}`,
	// Escapes, non-ASCII and invalid UTF-8 in strings.
	`{"graph":"00\u0030f","queries":[{"v":1,"alg":"gr\"eedy"}]}`,
	`{"graph":"\\","queries":[{"v":1}]}`,
	"{\"graph\":\"é\",\"queries\":[{\"v\":1}]}",
	"{\"graph\":\"\xff\xfe\",\"queries\":[{\"v\":1}]}",
	"{\"graph\":\"a\tb\",\"queries\":[{\"v\":1}]}",
	"{\"q\xffueries\":[{\"v\":1}]}",
	// Integers of 18, 19 and more digits, and numbers out of float range.
	`{"queries":[{"v":123456789012345678}]}`,
	`{"queries":[{"v":-123456789012345678}]}`,
	`{"queries":[{"v":1234567890123456789}]}`,
	`{"queries":[{"v":9223372036854775808}]}`,
	`{"queries":[{"v":-99999999999999999999999}]}`,
	`{"eps":1e400,"queries":[{"v":1}]}`,
	`{"eps":-1e400,"queries":[{"v":1,"eps":1e-400}]}`,
	`{"eps":-0,"queries":[{"v":-0,"eps":-0.0e-0}]}`,
	`{"eps":1E+2,"queries":[{"v":1,"eps":0.5e-3}]}`,
	// Malformed numbers.
	`{"queries":[{"v":01}]}`,
	`{"queries":[{"v":-}]}`,
	`{"queries":[{"v":+1}]}`,
	`{"eps":.5,"queries":[{"v":1}]}`,
	`{"eps":1.,"queries":[{"v":1}]}`,
	`{"eps":1e,"queries":[{"v":1}]}`,
	`{"eps":00.5,"queries":[{"v":1}]}`,
	// Wrong types.
	`{"graph":1,"queries":[{"v":1}]}`,
	`{"queries":[{"v":"1"}]}`,
	`{"queries":{"v":1}}`,
	`{"queries":[[1]]}`,
	`{"queries":[{"v":true}]}`,
	// Top-level shapes.
	`null`,
	`[]`,
	`[{"v":1}]`,
	`"queries"`,
	`7`,
	`{}`,
	`{"queries":[]}`,
	`{"queries":[{}]}`,
	"  \n\t{ \"queries\" : [ { \"v\" : 1 , \"fail\" : [ 2 , 3 ] } ] }\r\n",
	// Trailing bytes after the object are ignored.
	`{"queries":[{"v":1}]} trailing garbage`,
	`{"queries":[{"v":1}]}{"queries":[{"v":2}]}`,
	// An empty slot graph or algorithm means the request's.
	`{"graph":"00000000000000aa","alg":"tree","queries":[{"graph":"","alg":"","v":1,"fail":[1,2]},{"v":1,"fail":[1,2]},{"alg":"bogus","v":2},{"v":3}]}`,
	// A default after the vector applies to slots before it.
	`{"queries":[{"v":1,"fail":[1,2]}],"graph":"00000000000000aa"}`,
	`{"graph":"00000000000000aa","queries":[{"v":1}],"eps":0.5}`,
	// Neighbouring slots whose addresses differ in one field at a time.
	`{"graph":"00000000000000aa","eps":0.3,"queries":[{"source":1,"v":1,"fail":[1,2]},{"source":1,"v":2,"fail":[2,1]},{"source":2,"v":2,"fail":[2,1]},{"source":2,"eps":0.3,"v":2},{"source":2,"eps":0.5,"v":2},{"source":2,"v":2,"failedVertex":3},{"source":2,"eps":9,"v":2,"failedVertex":3},{"graph":"00000000000000bb","source":2,"v":2,"failedVertex":3},{"graph":"00000000000000bb","source":2,"v":2,"fail":[9,8]},{"graph":"zz","source":2,"v":2,"fail":[9,8]},{"graph":"zz","source":2,"v":2,"failedVertex":4}]}`,
	// Values past the wire's 32-bit fields.
	`{"queries":[{"source":4294967296,"v":1,"fail":[1,2]},{"v":-2147483649,"failedVertex":1},{"v":1,"fail":[2147483648,1]},{"v":1,"failedVertex":2147483648},{"graph":"x","v":1,"failedVertex":2147483648}]}`,
	// Unknown keys are skipped by encoding/json.
	`{"extra":{"a":[1,2,{"b":null}]},"queries":[{"v":1,"note":"x"}]}`,
	// Truncated and broken bodies.
	``,
	` `,
	`{`,
	`{"queries":[{"v":1,`,
	`{"queries":[{"v":1}`,
	`{"queries":[{"v":1}]`,
	`{"queries":[{"v":1},]}`,
	`{"queries":[{"v":1,}]}`,
	`{"graph":"0`,
	`{"graph"`,
	`{"graph":}`,
	`{,}`,
	"\xef\xbb\xbf{\"queries\":[{\"v\":1}]}",
}

// randomBatchRequest draws a non-empty request from the value domains
// clients use: fingerprints, algorithm names, plain strings, integers of up
// to 18 digits and any finite ε.
func randomBatchRequest(rng *rand.Rand) BatchQueryRequest {
	const printable = " !#$%'()*+,-./0123456789:;=?@ABCXYZ[]^_`abcxyz{|}~"
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf("%016x", rng.Uint64())
		case 2:
			return []string{"auto", "tree", "baseline", "epsilon", "greedy"}[rng.Intn(5)]
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = printable[rng.Intn(len(printable))]
		}
		return string(b)
	}
	integer := func() int {
		switch rng.Intn(3) {
		case 0:
			return rng.Intn(1000)
		case 1:
			return -rng.Intn(1000)
		}
		n := int(rng.Int63n(1e18))
		if rng.Intn(2) == 0 {
			n = -n
		}
		return n
	}
	float := func() *float64 {
		var f float64
		switch rng.Intn(4) {
		case 0:
			f = []float64{0, math.Copysign(0, -1), 0.25, 0.3, 1}[rng.Intn(5)]
		case 1:
			f = rng.Float64()
		case 2:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			for f = math.NaN(); math.IsNaN(f) || math.IsInf(f, 0); {
				f = math.Float64frombits(rng.Uint64())
			}
		}
		return &f
	}
	intPtr := func() *int {
		n := integer()
		return &n
	}
	maybe := func() bool { return rng.Intn(2) == 0 }
	req := BatchQueryRequest{Graph: str(), Alg: str(), Queries: make([]BatchQuery, 1+rng.Intn(8))}
	if maybe() {
		req.Source = integer()
	}
	if maybe() {
		req.Eps = float()
	}
	for i := range req.Queries {
		q := &req.Queries[i]
		q.Graph, q.Alg, q.V = str(), str(), integer()
		q.Fail = [2]int{integer(), integer()}
		if maybe() {
			q.Source = intPtr()
		}
		if maybe() {
			q.Eps = float()
		}
		if maybe() {
			q.FailedVertex = intPtr()
		}
	}
	return req
}

// readmeBatchBodies returns the /batch-query example bodies of the README.
func readmeBatchBodies(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, m := range regexp.MustCompile(`(?s)/batch-query -d '([^']*)'`).FindAllSubmatch(readme, -1) {
		bodies = append(bodies, string(m[1]))
	}
	if len(bodies) < 2 {
		t.Fatalf("found %d /batch-query examples in README.md, want at least 2", len(bodies))
	}
	return bodies
}

// wireVector is a vector in wire form, as DecodeBatchQuery and
// BatchQueryRequest.Wire return it.
type wireVector struct {
	keys  []store.Key
	slots []wire.BatchSlot
	errs  []string
}

// referenceVector decodes body with encoding/json and converts it with Wire:
// the reference for every body.
func referenceVector(body []byte) (wireVector, error) {
	var req BatchQueryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return wireVector{}, err
	}
	keys, slots, errs := req.Wire()
	return wireVector{keys, slots, errs}, nil
}

// diffVectors describes the first difference between two vectors, "" when
// they are equal; a nil and an empty vector are equal.
func diffVectors(got, want wireVector) string {
	if len(got.keys) != len(want.keys) || len(got.slots) != len(want.slots) || len(got.errs) != len(want.errs) {
		return fmt.Sprintf("lengths %d/%d/%d, want %d/%d/%d", len(got.keys), len(got.slots), len(got.errs), len(want.keys), len(want.slots), len(want.errs))
	}
	for i := range want.keys {
		if got.keys[i] != want.keys[i] || got.slots[i] != want.slots[i] || got.errs[i] != want.errs[i] {
			return fmt.Sprintf("slot %d: got %+v %+v %q, want %+v %+v %q", i, got.keys[i], got.slots[i], got.errs[i], want.keys[i], want.slots[i], want.errs[i])
		}
	}
	return ""
}

// TestScanBatchQueryTakesMarshalledBodies pins the fast path: every body a
// client in this repository sends must be scanned, not handed to
// encoding/json, into the keys, slots and per-slot errors Wire gives. A
// silent fallback would erase the gain without failing any other test.
func TestScanBatchQueryTakesMarshalledBodies(t *testing.T) {
	bodies := readmeBatchBodies(t)
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 2000; i++ {
		body, err := json.Marshal(randomBatchRequest(rng))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	for _, body := range bodies {
		want, err := referenceVector([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		keys, slots, errs, ok := scanBatchQuery([]byte(body))
		if !ok {
			t.Fatalf("scanner fell back on %s", body)
		}
		if d := diffVectors(wireVector{keys, slots, errs}, want); d != "" {
			t.Fatalf("scanned %s\n%s", body, d)
		}
	}
}

// TestScanBatchQueryAllocs pins the scanner's allocations: decoding a
// 256-slot vector into its wire form costs its keys, slots and errors plus
// the default graph's text, none per slot.
func TestScanBatchQueryAllocs(t *testing.T) {
	req := BatchQueryRequest{Graph: "00000000000000ff", Queries: make([]BatchQuery, 256)}
	for i := range req.Queries {
		src, eps, fw := i%16, 0.3, i%7
		q := BatchQuery{Source: &src, V: i}
		if i%4 == 0 {
			q.FailedVertex = &fw
		} else {
			q.Eps, q.Fail = &eps, [2]int{i, i + 1}
		}
		req.Queries[i] = q
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, ok := scanBatchQuery(body); !ok {
			t.Fatal("scanner fell back")
		}
	})
	if allocs > 4 {
		t.Fatalf("scanning a 256-slot vector costs %.0f allocs, want at most 4", allocs)
	}
}

// checkDecode asserts DecodeBatchQuery returns what encoding/json and Wire
// return for the same body: the same keys, slots and per-slot errors, or
// "bad body: " + the same error.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceVector(body)
	keys, slots, errs, err := DecodeBatchQuery(httptest.NewRequest(http.MethodPost, "/batch-query", bytes.NewReader(body)))
	switch {
	case wantErr == nil && err != nil:
		t.Fatalf("%q: DecodeBatchQuery failed with %v, encoding/json took it", body, err)
	case wantErr != nil && (err == nil || err.Error() != "bad body: "+wantErr.Error()):
		t.Fatalf("%q: DecodeBatchQuery error %v, want bad body: %v", body, err, wantErr)
	}
	if d := diffVectors(wireVector{keys, slots, errs}, want); d != "" {
		t.Fatalf("%q: %s", body, d)
	}
}

// FuzzDecodeBatchQuery holds DecodeBatchQuery to encoding/json and Wire on
// every input: the same keys, slots and per-slot errors, or the handler's
// "bad body: " + the same error.
func FuzzDecodeBatchQuery(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		body, err := json.Marshal(randomBatchRequest(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(checkDecode)
}

// failingBody yields its bytes, then fails: a client that hung up mid-body
// or a body cut at the size bound.
type failingBody struct {
	r   io.Reader
	err error
}

func (b *failingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = b.err
	}
	return n, err
}

// TestDecodeBatchQueryReadError checks a failed body read: the decoder sees
// the bytes that arrived, then the error, exactly as encoding/json reading
// the body directly would.
func TestDecodeBatchQueryReadError(t *testing.T) {
	cut := errors.New("connection reset")
	for _, body := range []string{`{"queries":[{"v":1}]}`, `{"queries":[{"v":1}]} tail`, `{"queries":[{"v":1`, ``} {
		var want BatchQueryRequest
		wantErr := json.NewDecoder(&failingBody{bytes.NewReader([]byte(body)), cut}).Decode(&want)
		r := httptest.NewRequest(http.MethodPost, "/batch-query", &failingBody{bytes.NewReader([]byte(body)), cut})
		keys, slots, errs, err := DecodeBatchQuery(r)
		if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != "bad body: "+wantErr.Error()) {
			t.Fatalf("%q: error %v, want bad body: %v", body, err, wantErr)
		}
		if wantErr == nil {
			wk, ws, we := want.Wire()
			if d := diffVectors(wireVector{keys, slots, errs}, wireVector{wk, ws, we}); d != "" {
				t.Fatalf("%q: %s", body, d)
			}
		}
	}
}

// TestBatchReplyMatchesWriteJSON pins writeBatchReply to WriteJSON of the
// same BatchQueryResponse, byte for byte with its header and status: with
// and without errors, and with messages that need escaping.
func TestBatchReplyMatchesWriteJSON(t *testing.T) {
	msgs := []string{"", "", "", "vertex 7 out of range [0,40)", `bad graph fingerprint "zz"`, `a\b`,
		"tab\there", "new\nline", "\x7f", "é", "\xff\xfe", "\u2028", "<&>", "\x00\x1f", "\b\f"}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(20)
		dists, errs := make([]int, n), make([]string, n)
		for i := range dists {
			dists[i] = rng.Intn(1000) - 1
			if trial%3 > 0 {
				errs[i] = msgs[rng.Intn(len(msgs))]
			}
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeBatchReply(got, dists, errs)
		resp := BatchQueryResponse{Dists: dists}
		for _, msg := range errs {
			if msg != "" {
				resp.Errors = errs
				break
			}
		}
		WriteJSON(want, http.StatusOK, resp)
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
			t.Fatalf("dists %v errs %q:\n got %d %v %q\nwant %d %v %q", dists, errs,
				got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
		}
	}
}
