package serve

// lruList is an intrusive doubly-linked recency list over cache
// entries, most-recently-used at the front. Every list operation is
// O(1) pointer surgery on links embedded in the entry itself, so no
// allocation and no scan ever happens on the hit, discard or eviction
// paths, even under churn of client-controlled failing keys.
//
// Only *completed* entries are ever linked (in-flight entries are
// unevictable and live solely in the shard map), and all operations
// are guarded by the owning shard's mutex.
type lruList struct {
	root entry // sentinel: root.next is front (MRU), root.prev is back (LRU)
	n    int
}

// init links the sentinel to itself (an empty list). Must be called
// before any other operation.
func (l *lruList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
}

// len reports the number of linked entries.
func (l *lruList) len() int { return l.n }

// pushFront links e as the most recently used entry. e must not be on
// any list.
func (l *lruList) pushFront(e *entry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
	l.n++
}

// remove unlinks e. e must be on this list.
func (l *lruList) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// moveToFront re-links e as the most recently used entry. e must be on
// this list.
func (l *lruList) moveToFront(e *entry) {
	if l.root.next == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// back returns the least recently used entry, nil when empty.
func (l *lruList) back() *entry {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}
