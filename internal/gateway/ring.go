package gateway

import (
	"hash/fnv"
	"sort"
	"sync"
)

// ring is a consistent-hash ring over backend names. Each member owns
// vnodes points on a 64-bit circle; a key is served by the first point at or
// after its hash (the "primary"), with the following distinct members as
// failover/spill replicas. The consistent-hashing property the gateway's
// cache-affinity design rests on: when one member leaves, only the keys whose
// replica walk crossed that member's points move — everything else keeps its
// backend, so its setup/format/tune caches stay warm.
type ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	owners map[string]struct{}
}

type ringPoint struct {
	hash  uint64
	owner string
}

func newRing(vnodes int) *ring {
	return &ring{vnodes: vnodes, owners: map[string]struct{}{}}
}

// add inserts a member's vnodes (no-op if already present).
func (r *ring) add(owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.owners[owner]; ok {
		return
	}
	r.owners[owner] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(owner, i), owner: owner})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a member's vnodes (no-op if absent).
func (r *ring) remove(owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.owners[owner]; !ok {
		return
	}
	delete(r.owners, owner)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != owner {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// members returns the current member count.
func (r *ring) members() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.owners)
}

// lookup returns up to max distinct members for key, primary first, walking
// the circle clockwise. An empty ring returns nil.
func (r *ring) lookup(key uint64, max int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || max < 1 {
		return nil
	}
	if max > len(r.owners) {
		max = len(r.owners)
	}
	h := mix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, max)
	seen := map[string]struct{}{}
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.owner]; ok {
			continue
		}
		seen[p.owner] = struct{}{}
		out = append(out, p.owner)
	}
	return out
}

// shares returns each member's fraction of the circle's arc length — the
// ring-occupancy view exposed at /backends and as spcggw_ring_share.
func (r *ring) shares() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := map[string]float64{}
	n := len(r.points)
	if n == 0 {
		return out
	}
	const scale = 1 / float64(1<<63) / 2 // 1 / 2^64 without overflow
	for i, p := range r.points {
		// The arc owned by point i ends at point i and starts at point i-1
		// (wrapping); its length is the hash gap.
		prev := r.points[(i+n-1)%n].hash
		gap := p.hash - prev // wraps correctly in uint64 arithmetic
		out[p.owner] += float64(gap) * scale
	}
	return out
}

// vnodeHash places one virtual node: FNV-1a over "owner#i", finalized with
// splitmix64. The finalizer matters: FNV's high bits are poorly avalanched
// on short inputs, and point placement sorts on the full 64-bit value, so
// unmixed hashes cluster and skew arc shares badly.
func vnodeHash(owner string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(owner))
	h.Write([]byte{'#', byte(i), byte(i >> 8)})
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: matrix fingerprints are already hashes,
// but mixing decorrelates them from the FNV vnode placement.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
