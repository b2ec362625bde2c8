package engine

import (
	"fmt"

	"mix/internal/cache"
	"mix/internal/source"
	"mix/internal/xmas"
)

// PlanCache memoizes CompileWith: the xmas.Verify pass plus the full
// operator-tree compilation, which every query and every wire "open" pays
// per issue (PR 4 made every compile verify, so repeated compilation is the
// hot tail of browse-style workloads). Keys are the canonical plan text
// (xmas.CanonicalKey — the mediator's per-query result ids are normalized
// away), the catalog identity and structural version (compile resolves
// sources eagerly, so registering a document invalidates cached programs),
// and the execution options.
//
// Caching a *Program is safe because a Program is immutable after compile:
// all mutable cursor state is created per Run inside the compiled closures.
// On a hit whose requested root id differs from the cached one, a shallow
// copy with the id rebound is returned, so the served document's root id is
// exactly what an uncached compile would have produced.
type PlanCache struct {
	lru *cache.LRU[string, *Program]
}

// NewPlanCache creates a cache holding at most entries compiled programs.
func NewPlanCache(entries int) *PlanCache {
	return &PlanCache{lru: cache.NewLRU[string, *Program](entries)}
}

// Stats snapshots the hit/miss/eviction counters.
func (pc *PlanCache) Stats() cache.Stats { return pc.lru.Stats() }

// CompileWith is the caching counterpart of the package-level CompileWith.
// A nil receiver compiles directly — callers hold one optional cache and
// never branch.
func (pc *PlanCache) CompileWith(plan xmas.Op, cat *source.Catalog, opts Options) (*Program, error) {
	if pc == nil {
		return CompileWith(plan, cat, opts)
	}
	key := fmt.Sprintf("%s\x01%p\x01%d\x01%s", xmas.CanonicalKey(plan), cat, cat.StructVersion(), optsKey(opts))
	if p, ok := pc.lru.Get(key); ok {
		return p.withRoot(plan), nil
	}
	p, err := CompileWith(plan, cat, opts)
	if err != nil {
		return nil, err // errors are not cached; failing queries are rare
	}
	pc.lru.Put(key, p)
	return p, nil
}

// optsKey fingerprints the execution options a compiled program bakes in.
// BatchExec enters as its window, so 0, 1 and negative values share a
// program.
func optsKey(o Options) string {
	return fmt.Sprintf("%t|%d|%t|%d|%d|%d|%t|%t", o.PartialResults, o.BatchSize, o.Prefetch,
		o.Parallelism, o.ExchangeBuffer, o.window(), o.PathIndex, o.CostOpt)
}

// withRoot rebinds the cached program to the root id of the requesting
// plan: the cache key canonicalizes root ids away, so two queries that
// differ only in their generated result id share one compiled program but
// still serve documents rooted at their own ids.
func (p *Program) withRoot(plan xmas.Op) *Program {
	rootID := "&result"
	if td, ok := plan.(*xmas.TD); ok && td.RootID != "" {
		rootID = td.RootID
		if rootID[0] != '&' {
			rootID = "&" + rootID
		}
	}
	if rootID == p.rootID {
		return p
	}
	cp := *p
	cp.plan = plan
	cp.rootID = rootID
	return &cp
}
