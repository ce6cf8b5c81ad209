package logbase_test

// Tests for the Row.Value sharing contract on both Store backends: a
// point read that hits the read buffer shares the buffered bytes rather
// than copying them, so those bytes must never change — not when the
// key is overwritten, deleted, evicted or rewritten by a transaction,
// not when the writer reuses its Put buffer, and not when a reader
// appends to what it got back.

import (
	"fmt"
	"testing"

	logbase "repro"
	"repro/internal/core"
)

// sharingCacheBytes is small enough that a few hundred 256-byte rows
// evict the probed key from the read buffer.
const sharingCacheBytes = 16 << 10

func TestReadValueSharingContract(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st logbase.Store) {
		const table, group = "t", "g"
		if err := st.CreateTable(table, group); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		key := []byte("probe")
		put := func(k, v []byte) {
			t.Helper()
			if err := st.Put(bg, table, group, k, v); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		get := func() []byte {
			t.Helper()
			row, err := st.Get(bg, table, group, key)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			return row.Value
		}
		expect := func(what string, got []byte, want string) {
			t.Helper()
			if string(got) != want {
				t.Errorf("%s: value = %q, want %q", what, got, want)
			}
		}

		// The writer's buffer is not shared.
		buf := []byte("first")
		put(key, buf)
		copy(buf, "XXXXX")
		expect("Get after the Put buffer changed", get(), "first")

		// Appending to a returned value never writes into the buffer.
		v := get()
		_ = append(v, "-tail"...)
		expect("Get after append to a returned value", get(), "first")

		held := get()
		put(key, []byte("second"))
		expect("value held across an overwrite", held, "first")
		expect("Get after overwrite", get(), "second")

		held = get()
		if err := st.Delete(bg, table, group, key); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		expect("value held across a delete", held, "second")

		put(key, []byte("third"))
		held = get()
		filler := make([]byte, 256)
		for i := 0; i < 400; i++ {
			put([]byte(fmt.Sprintf("filler%04d", i)), filler)
		}
		expect("value held across eviction", held, "third")

		missed := get() // read from the log, re-buffered
		hit := get()    // served from the buffer
		if err := logbase.RunTx(bg, st, func(tx logbase.Tx) error {
			return tx.Put(table, group, key, []byte("fourth"))
		}); err != nil {
			t.Fatalf("RunTx: %v", err)
		}
		expect("log-read value held across a Tx rewrite", missed, "third")
		expect("buffered value held across a Tx rewrite", hit, "third")
		expect("Get after Tx rewrite", get(), "fourth")
	})
}

// TestClusterClientCacheHitGetAllocs bounds the allocations of a
// read-buffer hit through the public cluster surface: the one-row
// result slice plus at most one more.
func TestClusterClientCacheHitGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled routing clients at random under -race")
	}
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 2,
		Server:     core.Config{ReadCacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	if err := cc.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	key := []byte("hot")
	if err := cc.Put(bg, "t", "g", key, make([]byte, 1024)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cc.Get(bg, "t", "g", key); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("cache-hit ClusterClient.Get allocates %.1f objects, want <= 2", n)
	}
}

// forEachBackend runs fn against an embedded DB and a two-server
// cluster, both with a small read buffer.
func forEachBackend(t *testing.T, fn func(*testing.T, logbase.Store)) {
	t.Run("db", func(t *testing.T) {
		db, err := logbase.Open(t.TempDir(), logbase.Options{ReadCacheBytes: sharingCacheBytes})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		fn(t, db)
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
			NumServers: 2,
			Server:     core.Config{ReadCacheBytes: sharingCacheBytes},
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cc := logbase.NewClusterClient(c)
		defer cc.Close()
		fn(t, cc)
	})
}
