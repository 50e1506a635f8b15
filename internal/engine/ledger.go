package engine

import (
	"havoqgt/internal/core"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
)

// The hot paths write plain per-rank ledgers — a query's core.Stats, the
// rank's mailbox.Stats — and publish nothing. The rank loop, which owns the
// rank's box and every in-flight query's run, is the one code that gives the
// machine's obs.Registry their growth, from the two tables below: a new
// ledger counter is one field, one obs name and one row. It publishes once
// per iteration, the box and every active query; at retire, forced retire
// included, before the query's Finish and its ranksDone count; and so, on
// shutdown, last in the iteration that closes the box, whose Close counts
// nothing. So the registry equals the ledgers when a query's done closes and
// when Engine.Close returns, and lags them by at most one iteration while a
// query runs. A core.Queue or mailbox.Box driven outside the engine keeps
// its Stats and publishes nothing.

// ledgerRow maps one published field of a ledger of type S to its obs name.
type ledgerRow[S comparable] struct {
	name  string
	field func(*S) *uint64
}

// queryRows are the counters a query's run keeps on one rank. The rest of
// core.Stats is the query's own record: protocol records, relaxations and
// waves have no registry cell, and its Mailbox is the box's, published once
// through boxRows.
var queryRows = []ledgerRow[core.Stats]{
	{obs.CorePushed, func(s *core.Stats) *uint64 { return &s.Pushed }},
	{obs.CoreGhostFiltered, func(s *core.Stats) *uint64 { return &s.GhostFiltered }},
	{obs.CoreLocal, func(s *core.Stats) *uint64 { return &s.Local }},
	{obs.CoreReceived, func(s *core.Stats) *uint64 { return &s.Received }},
	{obs.CoreQueued, func(s *core.Stats) *uint64 { return &s.Queued }},
	{obs.CoreExecuted, func(s *core.Stats) *uint64 { return &s.Executed }},
	{obs.CoreForwarded, func(s *core.Stats) *uint64 { return &s.Forwarded }},
	{obs.CoreParked, func(s *core.Stats) *uint64 { return &s.Parked }},
	{obs.CoreUnparked, func(s *core.Stats) *uint64 { return &s.Unparked }},
}

// boxRows are the counters of the rank's shared mailbox.
var boxRows = []ledgerRow[mailbox.Stats]{
	{obs.MBRecordsSent, func(s *mailbox.Stats) *uint64 { return &s.RecordsSent }},
	{obs.MBRecordsDelivered, func(s *mailbox.Stats) *uint64 { return &s.RecordsDelivered }},
	{obs.MBRecordsForwarded, func(s *mailbox.Stats) *uint64 { return &s.RecordsForwarded }},
	{obs.MBEnvelopesSent, func(s *mailbox.Stats) *uint64 { return &s.EnvelopesSent }},
	{obs.MBEnvelopesRecv, func(s *mailbox.Stats) *uint64 { return &s.EnvelopesRecv }},
	{obs.MBHops, func(s *mailbox.Stats) *uint64 { return &s.Hops }},
	{obs.MBFlushes, func(s *mailbox.Stats) *uint64 { return &s.Flushes }},
	{obs.MBDecodeErrors, func(s *mailbox.Stats) *uint64 { return &s.DecodeErrors }},
	{obs.MBRetransmits, func(s *mailbox.Stats) *uint64 { return &s.Retransmits }},
	{obs.MBDupDropped, func(s *mailbox.Stats) *uint64 { return &s.DupDropped }},
	{obs.MBCorruptDropped, func(s *mailbox.Stats) *uint64 { return &s.CorruptDropped }},
	{obs.MBStaleDropped, func(s *mailbox.Stats) *uint64 { return &s.StaleDropped }},
	{obs.MBAcksSent, func(s *mailbox.Stats) *uint64 { return &s.AcksSent }},
	{obs.MBPoolGets, func(s *mailbox.Stats) *uint64 { return &s.PoolGets }},
	{obs.MBPoolHits, func(s *mailbox.Stats) *uint64 { return &s.PoolHits }},
	{obs.MBPoolRecycledBytes, func(s *mailbox.Stats) *uint64 { return &s.PoolBytesRecycled }},
}

// ledger is one table's registry cells on one rank, looked up once.
type ledger[S comparable] struct {
	rows  []ledgerRow[S]
	cells []*obs.PerRank
	rank  int
}

func newLedger[S comparable](r *rt.Rank, rows []ledgerRow[S]) ledger[S] {
	l := ledger[S]{rows: rows, cells: make([]*obs.PerRank, len(rows)), rank: r.Rank()}
	for i, row := range rows {
		l.cells[i] = r.Obs().PerRank(row.name, r.Size())
	}
	return l
}

// publish gives the registry what cur's published fields have grown since
// *last, the ledger as last published, and brings *last up to cur. An idle
// rank loop iterates far more often than its ledgers move, so an unchanged
// ledger costs one comparison, not a walk of the table. Both point into the
// rank loop's long-lived state: the table's fields are reached through
// function values, which the compiler cannot see into, so a pointer to a
// stack copy would move the copy to the heap at every call.
func (l ledger[S]) publish(cur, last *S) {
	if *cur == *last {
		return
	}
	for i, row := range l.rows {
		l.cells[i].Publish(l.rank, *row.field(cur), row.field(last))
	}
	*last = *cur
}
