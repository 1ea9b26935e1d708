package adt

import (
	"sort"
	"strconv"

	"lintime/internal/spec"
)

// Dict operation names.
const (
	OpPut    = "put"
	OpGet    = "get"
	OpDel    = "del"
	OpSwap   = "swap"
	OpLenKey = "len"
)

// KV is the argument of put and swap: key k, value v.
type KV struct {
	K string
	V int
}

// Dict is a string→int dictionary. Put is a per-key overwriting pure
// mutator (last-sensitive among puts to the same key); swap is a mixed
// pair-free-style operation returning the previous binding; get/len are
// pure accessors.
//
// Operations:
//
//	put({k,v}, ⊥)  — pure mutator.
//	del(k, ⊥)      — pure mutator.
//	get(k, v|⊥)    — pure accessor; returns the binding or nil.
//	swap({k,v}, v') — mixed; sets k to v and returns the previous binding
//	                  (or nil if the key was absent).
//	len(⊥, n)      — pure accessor.
type Dict struct{}

// NewDict returns the dictionary data type.
func NewDict() *Dict { return &Dict{} }

// Name implements spec.DataType.
func (d *Dict) Name() string { return "dict" }

// Ops implements spec.DataType.
func (d *Dict) Ops() []spec.OpInfo {
	keys := []string{"a", "b"}
	var puts, swaps []spec.Value
	for _, k := range keys {
		for v := 0; v < 2; v++ {
			puts = append(puts, KV{K: k, V: v})
			swaps = append(swaps, KV{K: k, V: v})
		}
	}
	gets := []spec.Value{"a", "b"}
	return []spec.OpInfo{
		{Name: OpPut, Args: puts},
		{Name: OpDel, Args: gets},
		{Name: OpGet, Args: gets},
		{Name: OpSwap, Args: swaps},
		{Name: OpLenKey, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (d *Dict) Initial() spec.State { return dictState{bindings: map[string]int{}} }

type dictState struct {
	bindings map[string]int
}

func (s dictState) clone() dictState {
	next := make(map[string]int, len(s.bindings))
	for k, v := range s.bindings {
		next[k] = v
	}
	return dictState{bindings: next}
}

func (s dictState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpPut:
		kv, ok := arg.(KV)
		if !ok {
			return errValue(op, arg), s
		}
		next := s.clone()
		next.bindings[kv.K] = kv.V
		return nil, next
	case OpDel:
		k, ok := arg.(string)
		if !ok {
			return errValue(op, arg), s
		}
		if _, present := s.bindings[k]; !present {
			return nil, s
		}
		next := s.clone()
		delete(next.bindings, k)
		return nil, next
	case OpGet:
		k, ok := arg.(string)
		if !ok {
			return errValue(op, arg), s
		}
		if v, present := s.bindings[k]; present {
			return v, s
		}
		return nil, s
	case OpSwap:
		kv, ok := arg.(KV)
		if !ok {
			return errValue(op, arg), s
		}
		var prev spec.Value
		if v, present := s.bindings[kv.K]; present {
			prev = v
		}
		next := s.clone()
		next.bindings[kv.K] = kv.V
		return prev, next
	case OpLenKey:
		return len(s.bindings), s
	default:
		return errValue(op, arg), s
	}
}

func (s dictState) Fingerprint() string {
	keys := make([]string, 0, len(s.bindings))
	for k := range s.bindings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := append(make([]byte, 0, 64), "dict:"...)
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(append(buf, k...), '=')
		buf = strconv.AppendInt(buf, int64(s.bindings[k]), 10)
	}
	return string(buf)
}
