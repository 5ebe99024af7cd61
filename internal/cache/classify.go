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

// Classifier tracks a shadow fully-associative LRU cache and the set of
// ever-seen blocks so each miss in the cache under test can be labelled.
type Classifier struct {
	seen   map[uint64]struct{}
	shadow *lruSet
	brk    MissBreakdown
}

// NewClassifier returns a classifier for a cache of the given capacity
// in blocks.
func NewClassifier(capacityBlocks int) *Classifier {
	if capacityBlocks <= 0 {
		panic("cache: classifier capacity must be positive")
	}
	return &Classifier{
		seen:   make(map[uint64]struct{}),
		shadow: newLRUSet(capacityBlocks),
	}
}

// Observe must be called for every access (hit or miss) with the block
// address and whether the cache under test missed; a miss is counted in
// the breakdown under its kind.
func (cl *Classifier) Observe(block uint64, missed bool) {
	_, everSeen := cl.seen[block]
	cl.seen[block] = struct{}{}
	shadowHit := cl.shadow.access(block)
	switch {
	case !missed:
	case !everSeen:
		cl.brk.Compulsory++
	case !shadowHit:
		cl.brk.Capacity++
	default:
		cl.brk.Conflict++
	}
}

// ClassifyStream replays recs through c, as c.AccessStream does, and
// classifies each load's outcome: the one 3C rule of threec and
// tracesim.  Stores go unclassified, as the paper's tables count load
// misses: a store that a write-through, no-allocate c never fills would
// still fill the shadow, making a later load of its block a conflict.
func (cl *Classifier) ClassifyStream(c *Cache, recs []trace.Rec) {
	replayMemRecs(recs, func(addr uint64, write bool) {
		hit := c.Access(addr, write).Hit
		if !write {
			cl.Observe(c.Block(addr), !hit)
		}
	})
}

// Breakdown returns the accumulated counts.
func (cl *Classifier) Breakdown() MissBreakdown { return cl.brk }

// lruSet is a fully-associative LRU set implemented with a doubly-linked
// list over a map, O(1) per access.
type lruSet struct {
	cap   int
	nodes map[uint64]*lruNode
	head  *lruNode // most recent
	tail  *lruNode // least recent
}

type lruNode struct {
	block      uint64
	prev, next *lruNode
}

func newLRUSet(capacity int) *lruSet {
	return &lruSet{cap: capacity, nodes: make(map[uint64]*lruNode, capacity)}
}

// access touches block, returning true on hit.  On miss the block is
// inserted, evicting the LRU entry if full.
func (l *lruSet) access(block uint64) bool {
	if n, ok := l.nodes[block]; ok {
		l.moveToFront(n)
		return true
	}
	if len(l.nodes) >= l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.nodes, victim.block)
	}
	n := &lruNode{block: block}
	l.nodes[block] = n
	l.pushFront(n)
	return false
}

func (l *lruSet) pushFront(n *lruNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lruSet) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lruSet) moveToFront(n *lruNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
