package crowd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is the reflective decode the single-pass decoder
// replaces; FuzzReadDataset holds decodeDatasetJSON to it.
func referenceDecode(b []byte) (datasetJSON, error) {
	var in datasetJSON
	err := json.Unmarshal(b, &in)
	return in, err
}

// datasetJSONSeeds covers each encoding/json rule decodeDatasetJSON keeps.
var datasetJSONSeeds = []string{
	// Well-formed documents, with and without truth.
	`{"workers":2,"tasks":3,"arity":2,"responses":[[[0,1],[2,2]],[[1,1]]],"truth":[1,0,2]}`,
	` {"workers":1,"tasks":1,"arity":2,"responses":[[[0,1]]]}` + "\n\t\r ",
	// Syntax is validated inside unknown fields too.
	`{"workers":1,"tasks":1,"arity":2,"responses":[[[0,1]]],"x":{"a":[true,false,null,"s",-1.5e+3,{}]}}`,
	`{"workers":1,"x":[1,2,]}`,
	`{"workers":1,"x":{"a" 1}}`,
	`{"workers":1,"x":{"a":1,}}`,
	`{"workers":1,"x":tru}`,
	`{"workers":1,"x":nul}`,
	`{"workers":1,"x":[01]}`,
	`{"workers":1,"x":1.}`,
	`{"workers":1,"x":.5}`,
	`{"workers":1,"x":1e}`,
	`{"workers":1,"x":+1}`,
	`{"workers":1,"x":-}`,
	`{"workers":1,"x":"abc`,
	`{"workers":1,}`,
	`{"workers":1`,
	`{"workers"}`,
	`{workers:1}`,
	// Trailing bytes after the value.
	`{"workers":1} x`,
	`{}{}`,
	`{"workers":1}]`,
	// Top-level values other than an object.
	``,
	` `,
	`null`,
	`[]`,
	`[1,2]`,
	`"dataset"`,
	`1`,
	`true`,
	`{}`,
	// Keys match case-insensitively after unescaping.
	`{"worKers":1,"TASKS":1,"Arity":2,"RESPONSES":[[[0,1]]],"Truth":[1]}`,
	`{"workers":1,"tasks":1,"arity":2,"responses":[[[0,1]]]}`,
	`{"workers":1,"taſks":1,"arity":2,"responses":[[[0,1]]]}`,    // ſ folds to s
	`{"workers":1,"tasK":1,"tasK":2}`,                            // Kelvin sign folds to k
	`{"workers":1,"tasſs":1,"arity":2,"responses":[[[0,1]]]}`,    // raw UTF-8 ſ
	`{"work\"ers":1,"work\\ers":2,"work\/ers":3,"\b\f\n\r\t":4}`, // escapes that match nothing
	`{"wor\ud800kers":1,"😀":2,"\udc00\ud800":3,"\ud800A":4}`,     // lone and paired surrogates
	// Unknown fields are skipped.
	`{"comment":"generated","workers":1,"tasks":1,"arity":2,"responses":[[[0,1]]],"meta":[[[[]]]]}`,
	// null sets a slice to nil and leaves an int or a pair unchanged.
	`{"workers":1,"workers":null,"tasks":null,"responses":null,"truth":null}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[null],"truth":[null,2]}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[[null,[1,1],null]]}`,
	// Short pairs are zero-filled, long pairs truncated without type checks.
	`{"workers":1,"tasks":2,"arity":2,"responses":[[[1],[]]]}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[[[1,1,"x",{"a":[1.5]},null,true]]]}`,
	// [] decodes to an empty non-nil slice.
	`{"workers":0,"tasks":1,"arity":2,"responses":[],"truth":[]}`,
	`{"workers":1,"tasks":1,"arity":2,"responses":[[]]}`,
	// A repeated key decodes again into the existing backing arrays.
	`{"truth":[1,2,3],"truth":[4],"truth":[5,null,null]}`,
	`{"truth":[1,2,3],"truth":[],"truth":[5,null,null]}`,
	`{"truth":[1,2,3],"truth":null,"truth":[5,null]}`,
	`{"responses":[[[1,2],[3,4]],[[5,6]]],"responses":[[[7]]],"responses":[[[8,9],null],null,[null]]}`,
	`{"responses":[[[1,2],[3,4]]],"responses":[[[5,6]]],"responses":[[[7,8],null]]}`,
	`{"responses":[[[1,2]],[[3,4]]],"responses":[[]],"responses":[[null],[null]]}`,
	// An int must be a plain integer that fits.
	`{"workers":-0}`,
	`{"workers":0}`,
	`{"workers":1.0}`,
	`{"workers":1e0}`,
	`{"workers":1E+2}`,
	`{"workers":"1"}`,
	`{"workers":true}`,
	`{"workers":[1]}`,
	`{"workers":{}}`,
	`{"workers":9223372036854775807}`,
	`{"workers":9223372036854775808}`,
	`{"workers":-9223372036854775808}`,
	`{"workers":-9223372036854775809}`,
	`{"workers":99999999999999999999999}`,
	`{"truth":[1,"2"]}`,
	`{"truth":{"0":1}}`,
	`{"responses":[1]}`,
	`{"responses":[[1]]}`,
	`{"responses":[[[0,1.5]]]}`,
	`{"responses":[[["0",1]]]}`,
	`{"responses":"x"}`,
	// Strings: invalid escapes, raw control characters, invalid UTF-8.
	`{"\x":1}`,
	`{"\u12":1}`,
	`{"\u12G4":1}`,
	`{"x":"\ud800"}`,
	"{\"a\x01\":1}",
	"{\"x\":\"a\tb\"}",
	"{\"\xff\xfe\":1,\"x\":\"\xc3\"}",
	"{\"x\":\"\x7f\"}",
	// Nesting: 10000 levels are allowed, 10001 are not.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	`{"responses":[[[0,1,` + strings.Repeat("[", 9996) + strings.Repeat("]", 9996) + `]]]}`,
	`{"responses":[[[0,1,` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `]]]}`,
	// Shapes the build step must reject without allocating them.
	`{"workers":100000,"tasks":100000000,"arity":2,"responses":[]}`,
	`{"workers":1,"tasks":100000000000,"arity":2,"responses":[[]],"truth":[1]}`,
	`{"workers":4611686018427387904,"tasks":4,"arity":2,"responses":[[[0,1]]]}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[[[2,1]]]}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[[[0,3]]]}`,
	`{"workers":1,"tasks":2,"arity":2,"responses":[[[0,1]]],"truth":[1,-1]}`,
}

// FuzzReadDataset holds the single-pass decoder to encoding/json: the same
// documents are accepted, into reflect.DeepEqual structs (nil and empty
// slices differ, and a nil Truth means no gold answers). Accepted
// documents small enough to build then go through ReadDataset, and what
// it builds must survive a MarshalJSON round trip.
func FuzzReadDataset(f *testing.F) {
	for _, s := range datasetJSONSeeds {
		f.Add([]byte(s))
	}
	d := randomDataset(f, 5, 40, 3, 0.7, 7)
	_ = d.SetTruth(3, 2)
	doc, err := d.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecode(data)
		var got datasetJSON
		gotErr := decodeDatasetJSON(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode error %v; encoding/json error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v; encoding/json %#v", got, want)
		}
		if w, n := want.Workers, want.Tasks; w > 0 && n > 0 && w > (1<<20)/n {
			return
		}
		ds, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		re, err := ds.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadDataset(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded dataset does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, ds) {
			t.Fatal("dataset changed in a JSON round trip")
		}
	})
}

func TestReadDatasetShortDocumentHugeShape(t *testing.T) {
	// 61 bytes asking for 10^13 cells: the list count is checked before
	// anything is allocated.
	doc := `{"workers":100000,"tasks":100000000,"arity":2,"responses":[]}`
	if _, err := ReadDataset(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted a document with no response lists for 100000 workers")
	}
	doc = `{"workers":1,"tasks":100000000000,"arity":2,"responses":[[]],"truth":[1]}`
	if _, err := ReadDataset(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted a document with 1 truth entry for 10^11 tasks")
	}
}

func TestReadDatasetDocumentedExample(t *testing.T) {
	d, err := ReadDataset(strings.NewReader(`{"workers": 2, "tasks": 3, "arity": 2,
	 "responses": [[[0, 1], [2, 2]], [[1, 1]]],
	 "truth": [1, 0, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := MustNewDataset(2, 3, 2)
	_ = want.SetResponse(0, 0, Yes)
	_ = want.SetResponse(0, 2, No)
	_ = want.SetResponse(1, 1, Yes)
	_ = want.SetTruth(0, Yes)
	_ = want.SetTruth(2, No)
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("parsed %+v, want %+v", d, want)
	}
}

func TestReadDatasetErrorOffset(t *testing.T) {
	_, err := ReadDataset(strings.NewReader(`{"workers":1.5}`))
	if err == nil || !strings.Contains(err.Error(), "offset 11") {
		t.Fatalf("error %v does not name offset 11", err)
	}
}

func BenchmarkReadDataset(b *testing.B) {
	// The batch-assess shape: 64 workers × 4000 binary tasks at density
	// 0.8, with gold answers.
	d := randomDataset(b, 64, 4000, 2, 0.8, 1)
	for t := 0; t < d.Tasks(); t++ {
		_ = d.SetTruth(t, Response(1+t%2))
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDataset(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}
