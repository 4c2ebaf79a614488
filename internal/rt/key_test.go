package rt

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestKeyRejectsOversizedQueueSize pins the queue-size bound of the key
// decoders: a size varint of 2^63 or more must not wrap negative and pass
// the capacity check, which would parse the key as an empty queue.
func TestKeyRejectsOversizedQueueSize(t *testing.T) {
	for _, sz := range []uint64{5, 1 << 63, 1<<64 - 1} {
		b := binary.AppendVarint(nil, 7)
		b = binary.AppendUvarint(b, sz)
		key := string(b)
		argQ := []*Queue{NewQueue(4, 2)}
		if validKey(key, 1, argQ) {
			t.Errorf("size %d: validKey accepted a queue larger than its capacity 4", sz)
		}
		if parseKey(key, make([]int64, 1), argQ) {
			t.Errorf("size %d: parseKey accepted a queue larger than its capacity 4", sz)
		}
	}
}

// fuzzKeyShape derives main's parameter shape from the fuzzer's small
// integers: up to four integer arguments and at most one queue parameter
// of capacity 1..8 and width 1..4 (qcap%9 == 0 means no queue).
func fuzzKeyShape(nI, qcap, qwidth uint8) (int, []*Queue) {
	var argQ []*Queue
	if c := int(qcap % 9); c > 0 {
		argQ = append(argQ, NewQueue(c, 1+int(qwidth%4)))
	}
	return int(nI % 5), argQ
}

// FuzzKey checks the step-key codec on arbitrary bytes: validKey and
// parseKey agree on every input, and any key that parses round-trips
// through buildKey to the same arguments and the same bytes. It also
// derives a set of arguments from the input and checks that
// parseKey(buildKey(args)) restores them.
func FuzzKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, key []byte, nI, qcap, qwidth uint8) {
		nArgI, argQ := fuzzKeyShape(nI, qcap, qwidth)
		argI := make([]int64, nArgI)
		valid := validKey(string(key), nArgI, argQ)
		parsed := parseKey(string(key), argI, argQ)
		if valid != parsed {
			t.Fatalf("validKey=%v but parseKey=%v for %x", valid, parsed, key)
		}
		if parsed {
			checkRoundTrip(t, argI, argQ)
		}

		// Arguments drawn from the input bytes: integers first, then the
		// queue contents, sized to fit the queue.
		_, argQ = fuzzKeyShape(nI, qcap, qwidth)
		vals := make([]int64, 0, len(key)/8)
		for i := 0; i+8 <= len(key); i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(key[i:])))
		}
		for i := range argI {
			argI[i] = 0
			if i < len(vals) {
				argI[i] = vals[i]
			}
		}
		if len(argQ) > 0 && len(vals) > nArgI {
			rest := vals[nArgI:]
			q := argQ[0]
			n := len(rest) / q.Width()
			if n > q.Cap() {
				n = q.Cap()
			}
			q.Restore(rest[:n*q.Width()])
		}
		checkRoundTrip(t, argI, argQ)
	})
}

// checkRoundTrip asserts that buildKey(argI, argQ) is accepted by both
// decoders, restores exactly these arguments, and re-encodes to itself.
func checkRoundTrip(t *testing.T, argI []int64, argQ []*Queue) {
	t.Helper()
	key := buildKey(argI, argQ)
	if !validKey(key, len(argI), argQ) {
		t.Fatalf("validKey rejected buildKey(%v) = %x", argI, key)
	}
	gotI := make([]int64, len(argI))
	gotQ := make([]*Queue, len(argQ))
	for i, q := range argQ {
		gotQ[i] = NewQueue(q.Cap(), q.Width())
	}
	if !parseKey(key, gotI, gotQ) {
		t.Fatalf("parseKey rejected buildKey(%v) = %x", argI, key)
	}
	if !reflect.DeepEqual(gotI, argI) {
		t.Fatalf("integer arguments %v round-tripped to %v", argI, gotI)
	}
	for i := range argQ {
		if !reflect.DeepEqual(gotQ[i].Snapshot(), argQ[i].Snapshot()) {
			t.Fatalf("queue %d %v round-tripped to %v", i, argQ[i].Snapshot(), gotQ[i].Snapshot())
		}
	}
	if again := buildKey(gotI, gotQ); again != key {
		t.Fatalf("re-encoded key %x differs from %x", again, key)
	}
}
