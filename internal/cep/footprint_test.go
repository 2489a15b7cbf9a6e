package cep

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestRetainedBytes holds a statement's live heap to its layout, for one-
// and two-field keys: per retained record (2¹⁶ records in 16 groups: the
// 16-byte expiry entry) and per group (2¹⁶ records in as many groups, less
// the per-record bytes: a 32-byte slab entry, 32 bytes a key field, its
// bucket, its two sort words and the slabs' growth slack). Numeric keys,
// so no key string is counted; the statement is evaluated once, so its
// sort scratch is.
func TestRetainedBytes(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector inflates every allocation")
	}
	const n = 1 << 16
	retained := func(keys, groups int) float64 {
		e := New(func() time.Duration { return 0 })
		by := []string{"a", "b"}[:keys]
		schema := NewSchema("Access", by...)
		before := liveHeap()
		st := compile(t, e, Query{From: "Access", Window: time.Hour, GroupBy: by})
		for i := 0; i < n; i++ {
			ev := schema.Event(0)
			for k := range keys {
				ev.SetNum(k, float64(i%groups+k))
			}
			if err := e.Insert(ev); err != nil {
				t.Fatal(err)
			}
		}
		if rows := st.each(func([]Val) {}); rows != groups {
			t.Fatalf("%d rows, want %d", rows, groups)
		}
		b := float64(liveHeap() - before)
		runtime.KeepAlive(st)
		return b
	}
	for _, c := range []struct {
		keys                int
		perRecord, perGroup float64
	}{{1, 16.5, 128}, {2, 16.5, 164}} {
		rec := retained(c.keys, 16) / n
		grp := retained(c.keys, n)/n - rec
		t.Logf("%d-field key: %.1f bytes a record, %.1f a group", c.keys, rec, grp)
		if rec > c.perRecord || grp > c.perGroup {
			t.Errorf("%d-field key: %.1f bytes a record and %.1f a group, want at most %.0f and %.0f",
				c.keys, rec, grp, c.perRecord, c.perGroup)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// raceBuild reports whether this test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
