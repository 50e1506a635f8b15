package mailbox

// Delivery-epoch internals for epoch_test.go, which lives in the external
// test package because it imports internal/check (which imports this one).

const PollEpochRecords = pollEpochRecords

const RunHeader = runHeader

// ArenaCap returns the capacity of the larger of the two delivery arenas.
func (b *Box) ArenaCap() int { return max(cap(b.arena), cap(b.arenaPrev)) }
