//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass.

package serve

import "testing"

// TestRecordCodecAllocs pins the record path's memory contract: encoding
// into a sized buffer and decoding into a shaped measurement allocate
// nothing.
func TestRecordCodecAllocs(t *testing.T) {
	src := recordShaped(3, 30)
	src.Timestamp = 1.5
	src.CSI[2][29] = -7.25
	buf := make([]byte, 0, RecordSize(3, 30))
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendRecord(buf[:0], src)
	}); n != 0 {
		t.Errorf("AppendRecord: %v allocs per run, want 0", n)
	}
	dst := recordShaped(3, 30)
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseRecord(buf, &dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseRecord: %v allocs per run, want 0", n)
	}
	if dst.CSI[2][29] != -7.25 {
		t.Errorf("decoded csi[2][29] = %v, want -7.25", dst.CSI[2][29])
	}
}
