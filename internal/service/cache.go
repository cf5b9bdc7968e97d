package service

import (
	"container/list"
	"sync"

	"spcg/internal/tune"
)

// lru is a bounded get-or-create cache: get returns the value stored under
// key, creating a zero V (and evicting the least recently used entry beyond
// max) when there is none. Values are pointers to lazily filled, self-locked
// state, so a get that finds the key counts as a hit even while another
// goroutine is still building the value — the expensive work is shared either
// way.
type lru[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used; values are *lruItem[K, V]
	items  map[K]*list.Element
	hits   int64
	misses int64
}

type lruItem[K comparable, V any] struct {
	key K
	val *V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	if max < 1 {
		max = 1
	}
	return &lru[K, V]{max: max, ll: list.New(), items: map[K]*list.Element{}}
}

func (c *lru[K, V]) get(key K) *V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruItem[K, V]).val
	}
	c.misses++
	val := new(V)
	c.items[key] = c.ll.PushFront(&lruItem[K, V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[K, V]).key)
	}
	return val
}

func (c *lru[K, V]) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// setupKey identifies the expensive per-matrix setup state: the matrix
// content (by fingerprint) and the canonical preconditioner spec. The
// tune.Setup stored under it holds the preconditioner and the spectral
// estimate of M⁻¹A, which depend on exactly these inputs.
type setupKey struct {
	fp   uint64
	prec string
}

// setupCache is the LRU of reusable solver set-up.
type setupCache = lru[setupKey, tune.Setup]
