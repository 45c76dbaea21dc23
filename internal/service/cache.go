package service

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache is the content-addressed result store: an in-memory LRU over exact
// response bodies, keyed by the canonical config hash, with optional
// write-through persistence to a directory (one file per key, so a restarted
// daemon — or a second one sharing the directory — reuses earlier results).
// Values are the exact bytes served, so a hit is byte-identical to the miss
// that populated it.
type Cache struct {
	mu      sync.Mutex
	max     int
	dir     string
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses int64
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns a cache bounded to max in-memory entries (1024 when max
// is below 1). When dir is non-empty it is created and used for
// write-through persistence; entries evicted from memory remain readable
// from disk.
func NewCache(max int, dir string) (*Cache, error) {
	if max < 1 {
		max = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &Cache{
		max:     max,
		dir:     dir,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}, nil
}

// Get returns the cached bytes for key. Memory is consulted first, then the
// persistence directory; a disk hit is promoted back into memory. Both count
// as hits.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	if c.dir != "" && validKey(key) {
		if b, err := os.ReadFile(c.path(key)); err == nil {
			c.insert(key, b)
			c.hits++
			return b, true
		}
	}
	c.misses++
	return nil, false
}

// Put stores the bytes for key, evicting the least recently used in-memory
// entry beyond the bound and writing through to disk when persistence is on.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Determinism makes re-puts byte-identical; keep the first.
		c.order.MoveToFront(el)
		return
	}
	c.insert(key, val)
	if c.dir != "" && validKey(key) {
		// Atomic publish so concurrent readers never see a torn file;
		// persistence is best-effort and never fails a request.
		tmp, err := os.CreateTemp(c.dir, "put-*")
		if err != nil {
			return
		}
		name := tmp.Name()
		if _, err := tmp.Write(val); err == nil && tmp.Close() == nil {
			os.Rename(name, c.path(key))
		} else {
			tmp.Close()
			os.Remove(name)
		}
	}
}

// insert adds to the in-memory LRU, evicting beyond the bound. Caller locks.
func (c *Cache) insert(key string, val []byte) {
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// Stats returns cumulative hit/miss counters and the current entry count.
func (c *Cache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// validKey restricts disk lookups to hex content addresses so a key can
// never escape the cache directory.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return !('0' <= r && r <= '9' || 'a' <= r && r <= 'f')
	}) < 0
}
