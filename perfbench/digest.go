package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"cbar"
)

// digest fingerprints every field of every simulated result. JSON
// prints floats in their shortest exact form, so two digests are equal
// exactly when every statistic is bit-identical.
func digest(rs []cbar.SteadyResult) string {
	b, err := json.Marshal(rs)
	if err != nil {
		// SteadyResult holds only numbers, strings and bools; only a NaN
		// or Inf statistic fails to encode, which is itself a defect.
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

//go:embed digests.json
var recordedJSON []byte

// recorded maps workload -> seed -> the digest the simulator produced
// when the table was last regenerated (-record-digests). A speed-only
// change must reproduce every entry; a change that alters simulated
// behaviour on purpose regenerates the table and says so.
func recorded() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("perfbench: digests.json: %w", err)
	}
	return m, nil
}

// recordedDigest returns the table's digest for the workload and seed,
// or "" when the table has no entry for them.
func recordedDigest(workload string, seed uint64) (string, error) {
	m, err := recorded()
	if err != nil {
		return "", err
	}
	return m[workload][strconv.FormatUint(seed, 10)], nil
}
