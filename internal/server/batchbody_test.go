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

// TestScanBatchQueryTakesMarshalledBodies pins the fast path: every body a
// client in this repository sends must be scanned, not handed to
// encoding/json. A silent fallback would erase the gain without failing any
// other test.
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
		var want, got BatchQueryRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !scanBatchQuery([]byte(body), &got) {
			t.Fatalf("scanner fell back on %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanned %s\n got %+v\nwant %+v", body, got, want)
		}
	}
}

// TestScanBatchQueryAllocs pins the slabs: decoding a 256-slot vector costs
// a handful of allocations, not several per slot.
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
		var got BatchQueryRequest
		if !scanBatchQuery(body, &got) {
			t.Fatal("scanner fell back")
		}
	})
	if allocs > 6 {
		t.Fatalf("scanning a 256-slot vector costs %.0f allocs, want at most 6", allocs)
	}
}

// checkDecode asserts DecodeBatchQuery returns what encoding/json returns
// for the same body, value and error text alike.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want BatchQueryRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, err := DecodeBatchQuery(httptest.NewRequest(http.MethodPost, "/batch-query", bytes.NewReader(body)))
	switch {
	case wantErr == nil && err != nil:
		t.Fatalf("%q: DecodeBatchQuery failed with %v, encoding/json took it", body, err)
	case wantErr != nil && (err == nil || err.Error() != "bad body: "+wantErr.Error()):
		t.Fatalf("%q: DecodeBatchQuery error %v, want bad body: %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
	}
}

// FuzzDecodeBatchQuery holds DecodeBatchQuery to encoding/json on every
// input: the same value and the handler's "bad body: " + the same error.
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
		got, err := DecodeBatchQuery(r)
		if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != "bad body: "+wantErr.Error()) {
			t.Fatalf("%q: error %v, want bad body: %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: got %+v, want %+v", body, got, want)
		}
	}
}
