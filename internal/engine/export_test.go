package engine

import (
	"havoqgt/internal/core"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
)

// PublishLedgers gives r's registry, through the rank loop's tables, the
// query ledger q and the box ledger b of rank r as growth from zero.
func PublishLedgers(r *rt.Rank, q core.Stats, b mailbox.Stats) {
	newLedger(r, queryRows).publish(&q, new(core.Stats))
	newLedger(r, boxRows).publish(&b, new(mailbox.Stats))
}
