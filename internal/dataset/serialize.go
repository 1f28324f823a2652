package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// Record is the JSON-serializable form of an executed Run, the on-disk
// format emitted by cmd/datasetgen (the stand-in for the figshare dataset).
type Record struct {
	ID      string             `json:"id"`
	Kind    string             `json:"kind"`
	Device  string             `json:"device"`
	Qubits  int                `json:"qubits"`
	Shots   int                `json:"shots"`
	Correct []string           `json:"correct"`
	Cmin    float64            `json:"cmin,omitempty"`
	Ideal   map[string]float64 `json:"ideal"`
	Noisy   map[string]float64 `json:"noisy"`
}

// ToRecord converts a Run for serialization. The ideal distribution is
// truncated below eps to keep files small.
func (r *Run) ToRecord(eps float64) *Record {
	rec := &Record{
		ID:     r.Inst.ID,
		Kind:   string(r.Inst.Kind),
		Device: r.Device,
		Qubits: r.Inst.Qubits,
		Shots:  r.Shots,
		Cmin:   r.Cmin,
		Ideal:  distToMap(r.Ideal, eps),
		Noisy:  distToMap(r.Noisy, eps),
	}
	for _, c := range r.Correct {
		rec.Correct = append(rec.Correct, bitstr.Format(c, r.Inst.Qubits))
	}
	return rec
}

// Dists reconstructs the distributions and correct set from a record.
func (rec *Record) Dists() (ideal, noisy *dist.Dist, correct []bitstr.Bits, err error) {
	ideal, err = mapToDist(rec.Ideal, rec.Qubits)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dataset: record %s ideal: %w", rec.ID, err)
	}
	noisy, err = mapToDist(rec.Noisy, rec.Qubits)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dataset: record %s noisy: %w", rec.ID, err)
	}
	for _, s := range rec.Correct {
		c, perr := bitstr.Parse(s)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("dataset: record %s correct: %w", rec.ID, perr)
		}
		correct = append(correct, c)
	}
	return ideal, noisy, correct, nil
}

func distToMap(d *dist.Dist, eps float64) map[string]float64 {
	m := make(map[string]float64, d.Len())
	n := d.NumBits()
	d.Range(func(x bitstr.Bits, p float64) {
		if p > eps {
			m[bitstr.Format(x, n)] = p
		}
	})
	return m
}

// mapToDist builds the normalized distribution of a record's histogram. Its
// n-bit keys are visited in sorted order, which is ascending outcome order,
// so the total it normalizes by is summed in a fixed order.
func mapToDist(m map[string]float64, n int) (*dist.Dist, error) {
	b := dist.NewBuilder(n)
	for _, s := range slices.Sorted(maps.Keys(m)) {
		x, err := bitstr.Parse(s)
		if err != nil {
			return nil, err
		}
		b.Set(x, m[s])
	}
	return b.Dist().Normalize(), nil
}

// WriteRecords streams records as a JSON array.
func WriteRecords(w io.Writer, recs []*Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(recs)
}

// ReadRecords parses a JSON array of records.
func ReadRecords(r io.Reader) ([]*Record, error) {
	var recs []*Record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("dataset: decode records: %w", err)
	}
	return recs, nil
}

// SaveFile writes records to a file path.
func SaveFile(path string, recs []*Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteRecords(f, recs); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads records from a file path.
func LoadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRecords(f)
}
