package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// datasetJSON is the wire form of a Dataset. Responses are stored as a
// worker-major list of (task, response) pairs so sparse data stays compact.
type datasetJSON struct {
	Workers   int        `json:"workers"`
	Tasks     int        `json:"tasks"`
	Arity     int        `json:"arity"`
	Responses [][][2]int `json:"responses"` // per worker: [task, response]
	Truth     []int      `json:"truth,omitempty"`
}

// MarshalJSON encodes the dataset in a compact sparse form.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	out := datasetJSON{Workers: d.numWorkers, Tasks: d.numTasks, Arity: d.arity}
	out.Responses = make([][][2]int, d.numWorkers)
	for w := 0; w < d.numWorkers; w++ {
		for t := 0; t < d.numTasks; t++ {
			if r := d.Response(w, t); r != None {
				out.Responses[w] = append(out.Responses[w], [2]int{t, int(r)})
			}
		}
	}
	hasTruth := false
	for _, g := range d.truth {
		if g != None {
			hasTruth = true
			break
		}
	}
	if hasTruth {
		out.Truth = make([]int, d.numTasks)
		for t, g := range d.truth {
			out.Truth[t] = int(g)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the compact sparse form produced by MarshalJSON.
// It accepts what ReadDataset accepts.
func (d *Dataset) UnmarshalJSON(b []byte) error {
	var in datasetJSON
	if err := decodeDatasetJSON(b, &in); err != nil {
		return err
	}
	nd, err := in.dataset()
	if err != nil {
		return err
	}
	*d = *nd
	return nil
}

// dataset builds the Dataset a decoded document describes. The list counts
// are checked before NewDataset allocates, so a short document cannot ask
// for a workers×tasks matrix it does not fill.
func (in *datasetJSON) dataset() (*Dataset, error) {
	if len(in.Responses) != in.Workers {
		return nil, fmt.Errorf("crowd: %d response lists for %d workers", len(in.Responses), in.Workers)
	}
	if in.Truth != nil && len(in.Truth) != in.Tasks {
		return nil, fmt.Errorf("crowd: %d truth entries for %d tasks", len(in.Truth), in.Tasks)
	}
	nd, err := NewDataset(in.Workers, in.Tasks, in.Arity)
	if err != nil {
		return nil, err
	}
	for w, list := range in.Responses {
		for _, pair := range list {
			if err := nd.SetResponse(w, pair[0], Response(pair[1])); err != nil {
				return nil, err
			}
		}
	}
	for t, g := range in.Truth {
		if err := nd.SetTruth(t, Response(g)); err != nil {
			return nil, err
		}
	}
	return nd, nil
}

// WriteTo serializes the dataset as JSON to w.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadDataset parses a JSON-encoded dataset from r, in the form WriteTo
// writes:
//
//	{"workers": 2, "tasks": 3, "arity": 2,
//	 "responses": [[[0, 1], [2, 2]], [[1, 1]]],
//	 "truth": [1, 0, 2]}
//
// responses holds one list per worker of [task, response] pairs, with
// 0-based task indices and responses in 1…arity (0 is no response). truth
// is optional; when present it has one entry per task, 0 for unknown. The
// document is read exactly as encoding/json would read it into this
// schema: keys match case-insensitively, unknown keys are skipped, null
// leaves a number unchanged, and a number with a fraction or exponent is
// an error. It is parsed in one pass without reflection.
func ReadDataset(r io.Reader) (*Dataset, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	var in datasetJSON
	if err := decodeDatasetJSON(buf.Bytes(), &in); err != nil {
		return nil, err
	}
	return in.dataset()
}
