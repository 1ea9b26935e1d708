// Package adt provides concrete sequential data types implementing the
// spec.DataType interface: read/write registers, read-modify-write
// registers, FIFO queues, stacks, simple rooted trees (the four families
// whose bounds appear in Tables 1-4 of the paper) plus sets, counters,
// dictionaries, append-logs and max-registers used for additional
// classification and workload coverage.
//
// All states are immutable: Apply returns a fresh state and never mutates
// the receiver. Fingerprints are canonical, so spec.Equivalent is exact.
package adt

import (
	"fmt"
	"sort"
	"strconv"

	"lintime/internal/spec"
)

// Registry returns all data types provided by this package, keyed by name.
func Registry() map[string]spec.DataType {
	types := []spec.DataType{
		NewRegister(0),
		NewRMWRegister(0),
		NewQueue(),
		NewStack(),
		NewTree(),
		NewTreeFW(),
		NewSet(),
		NewCounter(),
		NewDict(),
		NewLog(),
		NewMaxRegister(0),
		NewPQueue(),
		NewDeque(),
		NewBank(0),
	}
	m := make(map[string]spec.DataType, len(types))
	for _, dt := range types {
		m[dt.Name()] = dt
	}
	return m
}

// Names returns the registry keys in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the data type with the given name.
func Lookup(name string) (spec.DataType, error) {
	dt, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("adt: unknown data type %q (have %v)", name, Names())
	}
	return dt, nil
}

// intArgs returns the sample arguments 0..n-1 as Values.
func intArgs(n int) []spec.Value {
	args := make([]spec.Value, n)
	for i := range args {
		args[i] = i
	}
	return args
}

// intsFingerprint renders prefix followed by the comma-separated decimal
// items: the canonical fingerprint of every list-shaped state, built in
// one buffer without fmt (the linearizability checker fingerprints every
// distinct state it reaches).
func intsFingerprint(prefix string, items []int) string {
	buf := append(make([]byte, 0, 64), prefix...)
	for i, v := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}
