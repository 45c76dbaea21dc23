package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(i int) string { return fmt.Sprintf("%064x", i) }

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("one"))
	c.Put(key(2), []byte("two"))
	if _, ok := c.Get(key(1)); !ok { // 1 becomes most recent
		t.Fatal("lost entry 1")
	}
	c.Put(key(3), []byte("three")) // evicts 2, the least recently used
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("entry 2 survived eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d evicted wrongly", i)
		}
	}
	hits, misses, entries := c.Stats()
	if hits != 3 || misses != 1 || entries != 2 {
		t.Fatalf("stats = %d/%d/%d, want 3/1/2", hits, misses, entries)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(7), []byte("persisted"))

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key(7))
	if !ok || !bytes.Equal(got, []byte("persisted")) {
		t.Fatalf("disk read = %q, %v", got, ok)
	}
	hits, misses, _ := c2.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("disk hit not counted: %d/%d", hits, misses)
	}

	// Evicted entries stay readable from disk.
	small, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	small.Put(key(8), []byte("a"))
	small.Put(key(9), []byte("b")) // evicts 8 from memory
	if got, ok := small.Get(key(8)); !ok || !bytes.Equal(got, []byte("a")) {
		t.Fatalf("evicted entry not recovered from disk: %q, %v", got, ok)
	}

	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left: %v", matches)
	}
}

// Keys that are not hex content addresses must never touch the filesystem.
func TestCacheRejectsNonHexDiskKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("../escape", []byte("x"))
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("key escaped the cache directory")
	}
	if got, ok := c.Get("../escape"); !ok || !bytes.Equal(got, []byte("x")) {
		t.Fatal("non-hex key unusable in memory")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c, err := NewCache(16, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 8)
				want := []byte(fmt.Sprintf("value-%d", i%8))
				if got, ok := c.Get(k); ok && !bytes.Equal(got, want) {
					t.Errorf("%s: got %q", k, got)
					return
				}
				c.Put(k, want)
			}
		}(g)
	}
	wg.Wait()
}
