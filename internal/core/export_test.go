package core

// OnCalendar reports whether the queue's local scheduler is the bucket
// calendar (false: the binary heap).
func (q *Queue[V]) OnCalendar() bool { return q.cal != nil }
