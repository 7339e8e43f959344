package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// codesDoc and int8sDoc are the same one-field document over Codes and
// over the plain []int8 that Codes must decode exactly like.
type codesDoc struct {
	Observed Codes `json:"observed"`
}

type int8sDoc struct {
	Observed []int8 `json:"observed"`
}

// stateCodeSeeds are the corpus of FuzzStateCodes and the cases of
// TestStateCodes: the plain shape, its edge values, and every shape that
// must take the encoding/json fallback.
var stateCodeSeeds = []string{
	`null`, `[]`, `[ ]`, `[-0]`, `[127,-128]`, `[128]`, `[-129]`,
	`[1.0]`, `[1e0]`, `["1"]`, `[1,null,0]`, `[[1]]`, `{}`,
	`[1,-1,0,9]`, ` [ 1 , -1 ,0 ] `, "[\n\t1,\r\n-1\n]", "\t[]\n", `[ null ]`,
	`[0,1,2,3,4,5,6,7,8,9,10,100,-100,-127]`, `[01]`, `[-]`, `[1,]`, `[,1]`,
	`[1 2]`, `[1,"a,b"]`, `[1000000000000000000000]`, `"x"`, `1`, `true`,
	`[300, "x"]`, `[1]garbage`, `[1], "bogus": 1`,
}

// decodeBoth decodes {"observed":<b>} strictly into both documents and
// fails t unless they agree: same outcome, same error text up to the
// struct name, same nil-ness and values. It returns the decoded codes.
func decodeBoth(t *testing.T, b []byte) (Codes, error) {
	t.Helper()
	doc := append(append([]byte(`{"observed":`), b...), '}')
	var got codesDoc
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	gotErr := dec.Decode(&got)
	var want int8sDoc
	dec = json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: Codes error %v, []int8 error %v", b, gotErr, wantErr)
	}
	if gotErr != nil {
		// encoding/json stops at an Unmarshaler's error but keeps going
		// past a plain field's, so when b is not one JSON value and the
		// document holds a second error, the two may report different
		// ones (see Codes). A single value holds only its own errors.
		gotText := strings.ReplaceAll(gotErr.Error(), "codesDoc.", "int8sDoc.")
		if json.Valid(b) && gotText != wantErr.Error() {
			t.Fatalf("%q: Codes error %q, []int8 error %q", b, gotText, wantErr)
		}
		return nil, gotErr
	}
	if (got.Observed == nil) != (want.Observed == nil) {
		t.Fatalf("%q: Codes nil=%v, []int8 nil=%v", b, got.Observed == nil, want.Observed == nil)
	}
	if !reflect.DeepEqual([]int8(got.Observed), want.Observed) {
		t.Fatalf("%q: Codes %v, []int8 %v", b, got.Observed, want.Observed)
	}
	return got.Observed, nil
}

// FuzzStateCodes is the differential test of Codes' decoder against
// encoding/json's decoding of a plain []int8.
func FuzzStateCodes(f *testing.F) {
	for _, s := range stateCodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeBoth(t, b)
	})
}

func TestStateCodes(t *testing.T) {
	for _, s := range stateCodeSeeds {
		decodeBoth(t, []byte(s))
	}

	// Spot-check the decoded values, and that the plain shape takes the
	// fast path, sized exactly, while everything else falls back.
	cases := []struct {
		in   string
		want Codes // nil for null or an error
		err  bool
		fast bool
	}{
		{in: `[]`, want: Codes{}, fast: true},
		{in: ` [ ] `, want: Codes{}, fast: true},
		{in: `[-0]`, want: Codes{0}, fast: true},
		{in: `[127,-128]`, want: Codes{127, -128}, fast: true},
		{in: "[ 1 ,\n-1,\t9 ]", want: Codes{1, -1, 9}, fast: true},
		{in: `null`},
		{in: `[1,null,0]`, want: Codes{1, 0, 0}},
		{in: `[128]`, err: true},
		{in: `[-129]`, err: true},
		{in: `[1.0]`, err: true},
		{in: `[1e0]`, err: true},
		{in: `["1"]`, err: true},
		{in: `[[1]]`, err: true},
		{in: `{}`, err: true},
	}
	for _, tc := range cases {
		got, err := decodeBoth(t, []byte(tc.in))
		if (err != nil) != tc.err {
			t.Errorf("%q: error %v, want error %v", tc.in, err, tc.err)
		}
		if (got == nil) != (tc.want == nil) || !reflect.DeepEqual([]int8(got), []int8(tc.want)) {
			t.Errorf("%q: decoded %#v, want %#v", tc.in, got, tc.want)
		}
		if _, fast := parseCodes([]byte(tc.in)); fast != tc.fast {
			t.Errorf("%q: fast path %v, want %v", tc.in, fast, tc.fast)
		}
		if tc.fast && cap(got) != len(got) {
			t.Errorf("%q: fast path sized cap %d for len %d", tc.in, cap(got), len(got))
		}
	}
}

// TestStateCodesEncodeLikeInt8s pins that Codes adds no encoding of its
// own: traces and observations keep their bytes.
func TestStateCodesEncodeLikeInt8s(t *testing.T) {
	for _, v := range [][]int8{nil, {}, {1, -1, 0, 9}, {127, -128}} {
		got, err := json.Marshal(Codes(v))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Codes(%v) encodes as %s, []int8 as %s", v, got, want)
		}
	}
	obs := Observation{Name: "n", Observed: Codes{1, 0, 9}, Seeds: []int{0}, SeedStates: Codes{1}}
	got, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"n","observed":[1,0,9],"seeds":[0],"seed_states":[1]}`
	if string(got) != want {
		t.Errorf("observation encodes as %s, want %s", got, want)
	}
}
