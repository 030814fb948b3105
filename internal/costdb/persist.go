package costdb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/workload"
)

// This file persists the cost database so repeated runs (scarserve
// restarts, scarbench re-runs) skip the cost-model warmup: the expensive
// part of a cold start is thousands of maestro.Analyze calls, all of
// which are pure functions of (layer shape, dataflow, chiplet spec,
// calibration params).

// persistVersion guards the on-disk layout; bump it when the key or
// result shape changes. Version 1 keyed entries on the dataflow's name
// and two chiplet fields, so its entries cannot be told apart by clock
// or on-chip bandwidth and are rejected.
const persistVersion = 2

// ErrStaleSnapshot marks a snapshot that decodes but was written under
// another on-disk version or cost-model calibration. Its entries cannot
// be used; a caller can start cold and overwrite it on its next save.
var ErrStaleSnapshot = errors.New("stale snapshot")

// savedEntry mirrors the unexported cache key plus its result with
// exported fields, as gob requires.
type savedEntry struct {
	Op                   workload.OpType
	N, K, C, Y, X, R, S  int
	Stride, BytesPerElem int
	Dataflow             dataflow.Dataflow
	Chiplet              maestro.Chiplet
	Result               maestro.Result
}

// savedDB is the serialized database: the calibration constants the
// entries were computed under, plus every cached result.
type savedDB struct {
	Version int
	Params  maestro.Params
	Entries []savedEntry
}

// Save writes the database's cached entries as a gob stream. Concurrent
// Cost calls may proceed; the snapshot is whatever is cached at lock
// acquisition.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	out := savedDB{Version: persistVersion, Params: db.params}
	out.Entries = make([]savedEntry, 0, len(db.cache))
	for k, r := range db.cache {
		out.Entries = append(out.Entries, savedEntry{
			Op: k.op, N: k.n, K: k.k, C: k.c, Y: k.y, X: k.x, R: k.r, S: k.s,
			Stride: k.stride, BytesPerElem: k.bytesPerElem,
			Dataflow: k.dataflow(), Chiplet: k.spec(),
			Result: r,
		})
	}
	db.mu.RUnlock()
	return gob.NewEncoder(w).Encode(out)
}

// Load merges a previously Saved stream into the database. A snapshot of
// another version, or with entries computed under different calibration
// constants, is rejected whole with an error wrapping ErrStaleSnapshot —
// a stale snapshot must not silently poison the cost model. An
// undecodable stream is a plain error.
func (db *DB) Load(r io.Reader) error {
	var in savedDB
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("costdb: load: %w", err)
	}
	if in.Version != persistVersion {
		return fmt.Errorf("costdb: load: %w: version %d, want %d", ErrStaleSnapshot, in.Version, persistVersion)
	}
	if in.Params != db.params {
		return fmt.Errorf("costdb: load: %w: calibrated with %+v, database uses %+v", ErrStaleSnapshot, in.Params, db.params)
	}
	db.mu.Lock()
	for _, e := range in.Entries {
		l := workload.Layer{
			Type: e.Op, N: e.N, K: e.K, C: e.C, Y: e.Y, X: e.X, R: e.R, S: e.S,
			Stride: e.Stride, BytesPerElem: e.BytesPerElem,
		}
		db.cache[makeKey(l, e.Dataflow, e.Chiplet)] = e.Result
	}
	db.mu.Unlock()
	return nil
}

// LoadFile loads a snapshot file into the database, reporting whether
// one was found. A missing file is a cold start (false, nil), not an
// error — the idiom both scarserve and scarbench want for warm-start
// flags.
func (db *DB) LoadFile(path string) (bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := db.Load(f); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

// SaveFile writes the snapshot atomically (temp file + rename), so a
// crash mid-save cannot truncate a good snapshot.
func (db *DB) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
