//go:build !race

// The race runtime instruments allocation, so allocation counts are pinned
// in a plain build only.

package ckpt

import (
	"bytes"
	"testing"
)

// TestRecordAllocFree pins a record to one exactly-sized allocation.
func TestRecordAllocFree(t *testing.T) {
	snapshot := bytes.Repeat([]byte{0xa5}, 13000)
	if allocs := testing.AllocsPerRun(50, func() {
		_ = encodeRecord(recordPut, "r-1", snapshot)
	}); allocs != 1 {
		t.Fatalf("a record takes %.0f allocations, want 1", allocs)
	}
}
