package costdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New(maestro.DefaultParams())
	spec := maestro.DefaultDatacenterChiplet()
	layers := []workload.Layer{
		workload.Conv("c", 64, 128, 28, 28, 3, 1),
		workload.GEMM("g", 64, 512, 1024),
		workload.DWConv("d", 96, 56, 56, 3, 2),
	}
	var want []maestro.Result
	for _, l := range layers {
		for _, df := range []dataflow.Dataflow{dataflow.NVDLA(), dataflow.ShiDianNao()} {
			want = append(want, db.Cost(l, df, spec))
		}
	}
	if db.Size() != len(want) {
		t.Fatalf("cache size = %d, want %d", db.Size(), len(want))
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh database serves every key from the snapshot without
	// recomputing.
	fresh := New(maestro.DefaultParams())
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Size() != db.Size() {
		t.Fatalf("loaded size = %d, want %d", fresh.Size(), db.Size())
	}
	i := 0
	for _, l := range layers {
		for _, df := range []dataflow.Dataflow{dataflow.NVDLA(), dataflow.ShiDianNao()} {
			if got := fresh.Cost(l, df, spec); got != want[i] {
				t.Errorf("layer %s / %s: loaded %+v, want %+v", l.Name, df.Name, got, want[i])
			}
			i++
		}
	}
	if _, misses := fresh.Stats(); misses != 0 {
		t.Errorf("loaded database recomputed %d entries", misses)
	}

	// Round-trip the loaded copy: identical snapshot size.
	var buf2 bytes.Buffer
	if err := fresh.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	again := New(maestro.DefaultParams())
	if err := again.Load(&buf2); err != nil {
		t.Fatal(err)
	}
	if again.Size() != db.Size() {
		t.Errorf("second round-trip size = %d, want %d", again.Size(), db.Size())
	}
}

func TestLoadRejectsWrongCalibration(t *testing.T) {
	db := New(maestro.DefaultParams())
	db.Cost(workload.GEMM("g", 16, 32, 64), dataflow.NVDLA(), maestro.DefaultEdgeChiplet())
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	params := maestro.DefaultParams()
	params.MACEnergyPJ *= 2
	other := New(params)
	if err := other.Load(&buf); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("snapshot with different calibration constants: err %v, want ErrStaleSnapshot", err)
	}
	if other.Size() != 0 {
		t.Errorf("rejected load left %d entries", other.Size())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := New(maestro.DefaultParams())
	err := db.Load(bytes.NewReader([]byte("not a gob stream")))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if errors.Is(err, ErrStaleSnapshot) {
		t.Errorf("undecodable stream reported as stale: %v", err)
	}
}

// A version-1 snapshot keyed entries on the dataflow name, PE count and
// L2 size alone, so it is rejected rather than merged.
func TestLoadRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	old := savedDB{Version: 1, Params: maestro.DefaultParams()}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	db := New(maestro.DefaultParams())
	if err := db.Load(&buf); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("version-1 snapshot: err %v, want ErrStaleSnapshot", err)
	}
}
