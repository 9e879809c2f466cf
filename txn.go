package pinbcast

import "pinbcast/internal/rtdb"

// Read-only client transactions over broadcast data (§1): a transaction
// reads a set of broadcast items and must complete retrieval of all of
// them before a firm deadline. Because the pinwheel construction bounds
// every file's worst-case retrieval by its window B·Tᵢ, a transaction's
// deadline can be guaranteed at admission time — the contract-before-
// service discipline the paper argues real-time databases need. For a
// live broadcast, Station.AdmitTxn negotiates the same guarantee
// online and holds later program changes to it.

// Txn is a read-only transaction: a named read set with a firm deadline
// in slots.
type Txn = rtdb.Txn

// TxnLatency returns the fault-free retrieval time of the transaction
// on the program when the client starts listening at the given slot:
// the time until every read file's reconstruction threshold of blocks
// has passed.
func TxnLatency(p *Program, x Txn, start int) (int, error) {
	return rtdb.TxnLatency(p, x, start)
}

// TxnWorstLatency maximizes the transaction's retrieval time over every
// start slot of one period under each read's rᵢ worst faults — the
// measured worst case of the transaction on this exact program, whatever
// layout built it. A station's contract is the window bound instead,
// which its construction certified; this measures what Build's other
// layouts give.
func TxnWorstLatency(p *Program, x Txn) (int, error) {
	return rtdb.TxnWorstLatency(p, x)
}
