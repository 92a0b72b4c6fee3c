package main

import (
	_ "embed"
	"encoding/json"
)

// golden holds the reference answers the checks compare against: the
// twelve Table 1 rows (seed-free), the synthetic rows and the corpus
// verdict digest of the seeds the references were taken for. Other seeds
// are checked by invariants and by agreement with the facade alone.
type golden struct {
	Rows      map[string]outcome            `json:"rows"`
	Synthetic map[string]map[string]outcome `json:"synthetic"`
	Corpus    map[string]string             `json:"corpus"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, err
	}
	return &g, nil
}
