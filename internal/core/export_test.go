package core

// FilterSized reports whether q's ghost filter has been sized (Queue.Ghosts).
func FilterSized[V Visitor](q *Queue[V]) bool { return q.filter.best != nil }
