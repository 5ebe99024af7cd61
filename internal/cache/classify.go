package cache

import "repro/internal/trace"

// Miss classification follows the classic three-C model the paper uses
// when it talks about "conflict misses" (§2) and about I-Poly reducing
// the miss ratio to near fully-associative levels:
//
//   - compulsory: first-ever reference to the block;
//   - capacity:   the block also misses in a fully-associative LRU cache
//     of the same capacity;
//   - conflict:   everything else — misses caused purely by the placement
//     function.

// MissBreakdown counts misses by kind.
type MissBreakdown struct {
	Compulsory uint64
	Capacity   uint64
	Conflict   uint64
}

// Total returns the total classified misses.
func (b MissBreakdown) Total() uint64 { return b.Compulsory + b.Capacity + b.Conflict }

// Classifier labels the load misses of every cache in one trace pass
// against a single shadow: the fully-associative LRU cache of their
// shared capacity.  The shadow sees the same loads whatever the caches'
// placements, so one serves them all.  It is one map from every block
// ever loaded to a node of an index-linked recency list; a node evicted
// from the shadow stays, marked non-resident, so the map is also the
// ever-seen set, and a shadow miss on a block seen before allocates
// nothing.
type Classifier struct {
	caches []*Cache
	brk    []MissBreakdown

	capacity, held int // blocks the shadow can hold and holds
	blocks         map[uint64]int32
	// nodes[0] is the sentinel of the circular recency list: its next
	// is the most recently loaded resident block, its prev the least.
	nodes []shadowNode
}

type shadowNode struct {
	prev, next int32
	resident   bool
}

// NewClassifier returns a classifier for the given caches.  It panics
// unless there is at least one and they all share one size and one
// block size, which set the shadow's capacity.
func NewClassifier(caches ...*Cache) *Classifier {
	if len(caches) == 0 {
		panic("cache: classifier needs a cache")
	}
	cfg := caches[0].Config()
	for _, c := range caches[1:] {
		if c.Config().Size != cfg.Size || c.Config().BlockSize != cfg.BlockSize {
			panic("cache: classified caches must share one size and one block size")
		}
	}
	return &Classifier{
		caches:   caches,
		brk:      make([]MissBreakdown, len(caches)),
		capacity: cfg.Size / cfg.BlockSize,
		blocks:   make(map[uint64]int32),
		nodes:    make([]shadowNode, 1),
	}
}

// ClassifyStream replays recs through every cache, as AccessStream
// does, and classifies each load's outcome in each: the one 3C rule of
// threec and tracesim.  Stores go unclassified, as the paper's tables
// count load misses: a store that a write-through, no-allocate cache
// never fills would still fill the shadow, making a later load of its
// block a conflict.
func (cl *Classifier) ClassifyStream(recs []trace.Rec) {
	replayMemRecs(recs, func(addr uint64, write bool) {
		block := cl.caches[0].Block(addr)
		var seen, resident bool
		if !write {
			seen, resident = cl.load(block)
		}
		for k, c := range cl.caches {
			if c.AccessBlock(block, write).Hit || write {
				continue
			}
			switch {
			case !seen:
				cl.brk[k].Compulsory++
			case !resident:
				cl.brk[k].Capacity++
			default:
				cl.brk[k].Conflict++
			}
		}
	})
}

// Breakdown returns the counts accumulated for the k-th cache passed to
// NewClassifier.
func (cl *Classifier) Breakdown(k int) MissBreakdown { return cl.brk[k] }

// load touches block in the shadow and reports whether it had been
// loaded before and whether the shadow still held it.  Either way block
// becomes the most recent resident block; a miss evicts the least
// recent one when the shadow is full.
func (cl *Classifier) load(block uint64) (seen, resident bool) {
	i, seen := cl.blocks[block]
	if !seen {
		i = int32(len(cl.nodes))
		cl.nodes = append(cl.nodes, shadowNode{})
		cl.blocks[block] = i
	}
	n := &cl.nodes[i]
	if resident = n.resident; resident {
		cl.unlink(i)
	} else if cl.held == cl.capacity {
		lru := cl.nodes[0].prev
		cl.unlink(lru)
		cl.nodes[lru].resident = false
	} else {
		cl.held++
	}
	n.resident = true
	head := cl.nodes[0].next
	n.prev, n.next = 0, head
	cl.nodes[head].prev = i
	cl.nodes[0].next = i
	return seen, resident
}

// unlink takes node i out of the recency list.
func (cl *Classifier) unlink(i int32) {
	n := cl.nodes[i]
	cl.nodes[n.prev].next = n.next
	cl.nodes[n.next].prev = n.prev
}
