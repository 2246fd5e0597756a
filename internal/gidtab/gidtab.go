// Package gidtab provides the scratch tables that graph walks index by node
// gid instead of hashing defs into a map.
//
// A table sized to the world's gid range would cost O(world) to clear, and
// a compile walks one small scope at a time, so a Table is never cleared:
// Reset starts a new epoch, and an entry counts only while its stamp equals
// the current epoch. The table grows with the world and is reused from walk
// to walk through Get and Put, so a walk costs time proportional to the
// nodes it touches. A Table holds no pointers, so a pooled table keeps no
// old graph alive.
package gidtab

import (
	"math"
	"sync"
)

// Table maps gids to int32 values for the duration of one walk. A Table
// must not be shared by concurrent walks.
type Table struct {
	stamp []uint32
	val   []int32
	epoch uint32
}

// Reset starts a new walk in which every entry reads as absent, and grows
// the table to hold gids below n (World.Generation()+1). Entries past n
// stay usable: Set grows the table on demand.
func (t *Table) Reset(n int) {
	if t.epoch == math.MaxUint32 {
		// The stamps would repeat from here on: forget them all, once
		// every 2^32 walks.
		clear(t.stamp)
		t.epoch = 0
	}
	t.epoch++
	if n > len(t.stamp) {
		t.grow(n)
	}
}

func (t *Table) grow(n int) {
	n = max(n, 2*len(t.stamp))
	stamp := make([]uint32, n)
	copy(stamp, t.stamp)
	val := make([]int32, n)
	copy(val, t.val)
	t.stamp, t.val = stamp, val
}

// Get returns gid's value and whether gid was set in this walk.
func (t *Table) Get(gid int) (int32, bool) {
	if uint(gid) < uint(len(t.stamp)) && t.stamp[gid] == t.epoch {
		return t.val[gid], true
	}
	return 0, false
}

// Has reports whether gid was set in this walk.
func (t *Table) Has(gid int) bool {
	return uint(gid) < uint(len(t.stamp)) && t.stamp[gid] == t.epoch
}

// Set sets gid's value for this walk.
func (t *Table) Set(gid int, v int32) {
	if gid >= len(t.stamp) {
		t.grow(gid + 1)
	}
	t.stamp[gid] = t.epoch
	t.val[gid] = v
}

// Add sets gid to 0 unless it was set in this walk, and reports whether it
// was absent: the visited-set idiom.
func (t *Table) Add(gid int) bool {
	if t.Has(gid) {
		return false
	}
	t.Set(gid, 0)
	return true
}

var pool = sync.Pool{New: func() any { return new(Table) }}

// Get takes a table from the pool and resets it for a walk over gids
// below n. Return it with Put when the walk ends.
func Get(n int) *Table {
	t := pool.Get().(*Table)
	t.Reset(n)
	return t
}

// Put returns a table to the pool. The caller must not use it afterwards.
func Put(t *Table) { pool.Put(t) }
