package adt

import (
	"strconv"

	"lintime/internal/spec"
)

// Bank account operation names.
const (
	OpDeposit  = "deposit"
	OpWithdraw = "withdraw"
	OpBalance  = "balance"
)

// Bank is an overdraft-protected bank account: withdrawals fail (return
// false) rather than drive the balance negative. Deposit is a commutative
// pure mutator; withdraw both observes (success flag) and mutates the
// balance and is pair-free — two withdrawals that both succeeded against
// the same funds cannot be serialized; balance is a pure accessor. This
// is the paper's motivating electronic-commerce scenario as a data type.
type Bank struct {
	initial int
}

// NewBank returns a bank-account data type with the given opening
// balance.
func NewBank(initial int) *Bank { return &Bank{initial: initial} }

// Name implements spec.DataType.
func (b *Bank) Name() string { return "bank" }

// Ops implements spec.DataType.
func (b *Bank) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpDeposit, Args: []spec.Value{1, 2, 5}},
		{Name: OpWithdraw, Args: []spec.Value{1, 2, 5}},
		{Name: OpBalance, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (b *Bank) Initial() spec.State { return bankState{balance: b.initial} }

type bankState struct {
	balance int
}

func (s bankState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpDeposit:
		v, ok := arg.(int)
		if !ok || v < 0 {
			return errValue(op, arg), s
		}
		return nil, bankState{balance: s.balance + v}
	case OpWithdraw:
		v, ok := arg.(int)
		if !ok || v < 0 {
			return errValue(op, arg), s
		}
		if v > s.balance {
			return false, s
		}
		return true, bankState{balance: s.balance - v}
	case OpBalance:
		return s.balance, s
	default:
		return errValue(op, arg), s
	}
}

func (s bankState) Fingerprint() string { return "bank:" + strconv.Itoa(s.balance) }
