package gidtab

import (
	"math"
	"testing"
)

// TestTableGrowsPastItsSize: gids beyond the size a walk was reset with
// (nodes created after the table was sized) read as absent until set, and
// setting one grows the table without losing the walk's earlier entries.
func TestTableGrowsPastItsSize(t *testing.T) {
	var tab Table
	tab.Reset(8)
	tab.Set(3, 30)
	if tab.Has(100) {
		t.Fatal("gid 100 present before it was set")
	}
	if _, ok := tab.Get(-1); ok {
		t.Fatal("negative gid present")
	}
	tab.Set(100, 7)
	if v, ok := tab.Get(100); !ok || v != 7 {
		t.Fatalf("Get(100) = %d,%v after growth, want 7,true", v, ok)
	}
	if v, ok := tab.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) = %d,%v after growth, want 30,true", v, ok)
	}
	if !tab.Add(101) || tab.Add(101) {
		t.Fatal("Add must report a gid new exactly once per walk")
	}
	tab.Reset(8)
	for _, gid := range []int{3, 100, 101} {
		if tab.Has(gid) {
			t.Fatalf("gid %d survived Reset", gid)
		}
	}
}

// TestTableEpochWrapAround: the reset that would reuse an epoch clears
// the stamps, so no entry of an old walk reappears after 2^32 walks.
func TestTableEpochWrapAround(t *testing.T) {
	var tab Table
	tab.Reset(4)
	tab.Set(1, 11) // stamped with epoch 1
	tab.epoch = math.MaxUint32 - 1
	tab.Reset(4) // epoch MaxUint32
	tab.Set(2, 22)
	tab.Reset(4) // wraps: must not resurrect gid 1's epoch-1 stamp
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tab.epoch)
	}
	for _, gid := range []int{1, 2} {
		if tab.Has(gid) {
			t.Fatalf("gid %d present after the epoch wrapped", gid)
		}
	}
	tab.Set(3, 33)
	if v, ok := tab.Get(3); !ok || v != 33 {
		t.Fatalf("Get(3) = %d,%v after wrap, want 33,true", v, ok)
	}
	tab.Reset(4)
	if tab.Has(3) {
		t.Fatal("gid 3 survived the first reset after the wrap")
	}
}
