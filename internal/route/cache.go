package route

import (
	"sync/atomic"

	"bsd6/internal/inet"
)

// Cache is a held route in the style of 4.4 BSD's struct route: a PCB
// embeds one so repeated sends to the same destination skip the radix
// walk (ip_output's `if (ro->ro_rt == 0 ...) rtalloc(ro)` pattern).
//
// Validation is one atomic generation compare: any structural table
// change — add, delete, change, clone, expiry — bumps Table.Gen and
// implicitly drops every cached route in the stack, the moral
// equivalent of BSD checking RTF_UP before reusing ro_rt.  Entry
// fields that mutate in place under the table lock (ND state, PMTU)
// are NOT frozen by the cache; consumers must still read them under
// Table.View per send, exactly as the uncached path does.
//
// The zero value is an empty cache. All methods are safe for
// concurrent use, though a cache is normally owned by one PCB.
type Cache struct {
	p atomic.Pointer[cachedRoute]
}

type cachedRoute struct {
	e   *Entry
	gen uint64
	fam inet.Family
	dst [16]byte // the destination the entry was resolved for
	dl  int
}

// LookupCached is Table.Lookup through the cache: a hit costs one
// atomic compare; a miss does the real lookup and (when the result is
// safely cacheable) remembers it.
func (t *Table) LookupCached(f inet.Family, dst []byte, c *Cache) (*Entry, bool) {
	if c != nil {
		if e, ok := c.get(t, f, dst); ok {
			return e, true
		}
	}
	e, ok := t.Lookup(f, dst)
	if c != nil {
		if ok {
			t.fill(c, f, dst, e)
		} else {
			c.Invalidate()
		}
	}
	return e, ok
}

// get returns the cached entry if it is still current: same
// destination, and no structural table change since it was filled.
func (c *Cache) get(t *Table, f inet.Family, dst []byte) (*Entry, bool) {
	cr := c.p.Load()
	if cr == nil || t == nil || cr.fam != f || cr.dl != len(dst) ||
		string(cr.dst[:cr.dl]) != string(dst) || cr.gen != t.gen.Load() {
		return nil, false
	}
	atomic.AddUint64(&cr.e.Use, 1)
	t.touch(cr.e) // keep LRU recency honest for cache-hit traffic
	return cr.e, true
}

// fill remembers e for dst. Entries with an expiry are not cached —
// Lookup applies time-based retirement the generation counter cannot
// see.  Reading Expire requires the table lock (Mutate writes it).
func (t *Table) fill(c *Cache, f inet.Family, dst []byte, e *Entry) {
	cr := &cachedRoute{e: e, fam: f, dl: len(dst)}
	copy(cr.dst[:], dst)
	t.mu.RLock()
	// Sample the generation under the lock and hold e only if dst
	// still resolves to it: a structural change that slipped in after
	// the caller's lookup either shows here (nothing is held) or comes
	// after the sample (the held pair goes stale), so the pair is
	// never wrongly fresh.
	cr.gen = t.gen.Load()
	v, found := t.tree(f).Lookup(dst)
	ok := found && v.(*Entry) == e && (e.Expire.IsZero() || e.Flags&FlagLLInfo != 0)
	t.mu.RUnlock()
	if ok {
		c.p.Store(cr)
	} else {
		c.p.Store(nil)
	}
}

// CacheGet returns the cached entry for dst if it is still current,
// without falling back to a lookup.  Callers whose miss path is more
// than a plain Lookup (the IPv6 output path clones host routes on
// miss) use this with CacheFill instead of LookupCached.
func (t *Table) CacheGet(c *Cache, f inet.Family, dst []byte) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	return c.get(t, f, dst)
}

// CacheFill remembers e as the route for dst, subject to the same
// cacheability rules as LookupCached's miss path.
func (t *Table) CacheFill(c *Cache, f inet.Family, dst []byte, e *Entry) {
	if c == nil || e == nil {
		return
	}
	t.fill(c, f, dst, e)
}

// Invalidate empties the cache (socket disconnect, family change).
func (c *Cache) Invalidate() { c.p.Store(nil) }

// ShardedSize is the number of Caches in a ShardedCache.  64 slots
// keep a router's working set of next hops resident while bounding the
// memory to one pointer per slot.
const ShardedSize = 64

// ShardedCache is a fixed array of Caches indexed by destination hash
// — the forwarding path's held route.  A transit router sees many
// destinations rather than one PCB's single peer, so a lone Cache
// would thrash; hashing the destination across a small array gives
// each active next-hop flow its own slot.  The slots add capacity, not
// concurrency: a router forwards from its one netisr.  Validation is
// unchanged (one generation compare per slot), so a route delete
// anywhere still drops every slot on the next compare.  The zero value
// is ready to use.
type ShardedCache [ShardedSize]Cache

// For returns the slot holding dst's cached route (FNV-1a over the
// address bytes).
func (s *ShardedCache) For(dst []byte) *Cache {
	h := uint32(2166136261)
	for _, b := range dst {
		h = (h ^ uint32(b)) * 16777619
	}
	return &s[h%ShardedSize]
}
