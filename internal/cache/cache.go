// Package cache models the small SRAM remap cache the paper configures
// for the Table II access-time comparison (32 KB for a 1 GB chip, the
// proportion suggested by the LLS paper). The cache holds remap metadata
// for failed blocks — a hit removes the extra PCM accesses an indirection
// would otherwise cost.
//
// The model is a set-associative LRU cache over uint64 keys; only hit or
// miss matters to the simulation, not the cached payload.
package cache

import (
	"fmt"

	"wlreviver/internal/obs"
)

// Config describes the cache geometry.
type Config struct {
	// Sets is the number of cache sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
}

// SizedConfig derives a geometry from a capacity in bytes assuming
// entryBytes per entry and the given associativity, mirroring the paper's
// "32 KB cache" specification (8-byte entries, 8-way by default).
func SizedConfig(capacityBytes, entryBytes, ways int) (Config, error) {
	if capacityBytes <= 0 || entryBytes <= 0 || ways <= 0 {
		return Config{}, fmt.Errorf("cache: capacity, entry size and ways must be positive")
	}
	entries := capacityBytes / entryBytes
	if entries < ways {
		return Config{}, fmt.Errorf("cache: capacity %dB holds fewer than %d entries", capacityBytes, ways)
	}
	sets := entries / ways
	// Round sets down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return Config{Sets: p, Ways: ways}, nil
}

// Cache is a set-associative LRU cache of uint64 keys. The zero value is
// not usable; use New. It is not safe for concurrent use.
type Cache struct {
	cfg   Config   // ckpt:skip construction-time geometry, fingerprinted by the engine
	mask  uint64   // ckpt:derived recomputed from cfg.Sets in New
	keys  []uint64 // sets*ways entries
	valid []bool
	age   []uint64 // LRU stamps
	clock uint64

	hits, misses uint64

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; hit/miss probes
}

// New builds a cache. Sets must be a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets must be a positive power of two, got %d", cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive, got %d", cfg.Ways)
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:   cfg,
		mask:  uint64(cfg.Sets - 1),
		keys:  make([]uint64, n),
		valid: make([]bool, n),
		age:   make([]uint64, n),
	}, nil
}

// setBase returns the first slot index of the set for key.
func (c *Cache) setBase(key uint64) int {
	// Mix the key so sequential keys spread across sets.
	h := key * 0x9E3779B97F4A7C15
	return int((h>>32)&c.mask) * c.cfg.Ways
}

// Lookup probes the cache, inserting the key on a miss (allocate-on-miss,
// LRU eviction). It returns whether the key was present.
func (c *Cache) Lookup(key uint64) bool {
	c.clock++
	base := c.setBase(key)
	victim, victimAge := base, ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.keys[i] == key {
			c.age[i] = c.clock
			c.hits++
			if c.observer != nil {
				c.observer.Event(obs.Event{Kind: obs.RemapCacheHit, A: key})
			}
			return true
		}
		if !c.valid[i] {
			victim, victimAge = i, 0
		} else if c.age[i] < victimAge {
			victim, victimAge = i, c.age[i]
		}
	}
	c.misses++
	if c.observer != nil {
		c.observer.Event(obs.Event{Kind: obs.RemapCacheMiss, A: key})
	}
	c.keys[victim] = key
	c.valid[victim] = true
	c.age[victim] = c.clock
	return false
}

// Contains probes without inserting or updating recency.
func (c *Cache) Contains(key uint64) bool {
	base := c.setBase(key)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.keys[i] == key {
			return true
		}
	}
	return false
}

// Invalidate removes a key if present (e.g. remap metadata changed).
func (c *Cache) Invalidate(key uint64) {
	base := c.setBase(key)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.keys[i] == key {
			c.valid[i] = false
			return
		}
	}
}

// Hits returns the number of lookup hits.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of lookup misses.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Entries returns the total entry capacity.
func (c *Cache) Entries() int { return c.cfg.Sets * c.cfg.Ways }

// SetObserver attaches an event observer (nil detaches). Each Lookup
// fires exactly one RemapCacheHit or RemapCacheMiss.
func (c *Cache) SetObserver(o obs.Observer) { c.observer = o }
