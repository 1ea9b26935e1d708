package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/spec"
)

// The input generator. Every sequence it produces — operations, arguments,
// keys, arrival times — is a pure function of (--seed, workload); the
// program under test sees only these inputs.

type request struct {
	key string // "" on the single-object quorum workload
	op  string
	arg any
}

// opStream is one client's operation sequence. Pipeline workers of a
// client share it under the lock, so the j-th draw is the j-th request no
// matter which worker takes it.
//
// Operations are dealt in shuffled blocks of the expanded mix (ten draws of
// peek=8,enqueue=1,dequeue=1 hold exactly one dequeue), so every seed offers
// every class in its exact share over any stretch. Drawn independently, the
// number of dequeues among the 1100 operations of a sub-window moves by 9 %
// from seed to seed, and they are the slow class that decides the open
// loop's 99th percentile: e2e_p99_us spread 9 % over ten seeds where it
// repeats within 1 % at one seed, and 5 % with the blocks.
type opStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	block  []string // the expanded mix, reshuffled each time it has been dealt
	dealt  int
	args   map[string][]spec.Value
	keys   []string
	unique int // when > 0, writes carry unique+k for k = 0, 1, … instead of a drawn argument
}

func newOpStream(seed int64, id string, dt spec.DataType, mix []harness.OpPick, keys []string) (*opStream, error) {
	picks, err := harness.ExpandMix(dt, mix)
	if err != nil {
		return nil, err
	}
	s := &opStream{
		rng:   rand.New(rand.NewSource(harness.DeriveSeed(seed, id))),
		block: picks,
		dealt: len(picks),
		args:  map[string][]spec.Value{},
		keys:  keys,
	}
	for _, op := range dt.Ops() {
		s.args[op.Name] = op.Args
	}
	return s, nil
}

func (s *opStream) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dealt == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.dealt = 0
	}
	op := s.block[s.dealt]
	s.dealt++
	args := s.args[op]
	r := request{op: op, arg: args[s.rng.Intn(len(args))]}
	if s.unique > 0 && op == adt.OpWrite {
		r.arg = s.unique
		s.unique++
	}
	if len(s.keys) > 0 {
		r.key = s.keys[s.rng.Intn(len(s.keys))]
	}
	return r
}

func objectKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
	}
	return keys
}

// The write-heavy mix dequeues more than it enqueues on purpose. With the
// two balanced, queue lengths random-walk upward, and the order the checker
// guesses for two concurrent enqueues is refuted only when both reach the
// head: a queue's length later. Every such pair inside that stretch doubles
// the search, and one run in about ten of the balanced mix sent the
// per-object check past its 60 s timeout. A downward drift keeps queues a
// few elements long; dequeues that find one empty are still mixed
// operations with the full protocol cost. The two peeks keep the median
// service time inside the accessor class instead of on a class boundary.
var (
	mixWriteHeavy = []harness.OpPick{{Op: adt.OpEnqueue, Weight: 2}, {Op: adt.OpDequeue, Weight: 3}, {Op: adt.OpPeek, Weight: 2}}
	mixReadHeavy  = []harness.OpPick{{Op: adt.OpPeek, Weight: 8}, {Op: adt.OpEnqueue, Weight: 1}, {Op: adt.OpDequeue, Weight: 1}}
	mixRegister   = []harness.OpPick{{Op: adt.OpRead, Weight: 1}, {Op: adt.OpWrite, Weight: 1}}
)

// clientStreams builds the per-client streams of a live workload.
func clientStreams(workload string, seed int64) ([]*opStream, error) {
	var (
		typeName string
		mix      []harness.OpPick
		keys     []string
		clients  int
	)
	switch workload {
	case wlAlg1Closed:
		typeName, mix, keys, clients = "queue", mixWriteHeavy, objectKeys(alg1Keys), closedClients
	case wlAlg1OpenTCP:
		// Open loop: one stream, consumed in arrival order.
		typeName, mix, keys, clients = "queue", mixReadHeavy, objectKeys(alg1Keys), 1
	case wlQuorumCrash:
		typeName, mix, clients = "register", mixRegister, quorumClients
	default:
		return nil, fmt.Errorf("bench: workload %q has no client streams", workload)
	}
	dt, err := adt.Lookup(typeName)
	if err != nil {
		return nil, err
	}
	streams := make([]*opStream, clients)
	for i := range streams {
		s, err := newOpStream(seed, fmt.Sprintf("bench/%s/client/%d", workload, i), dt, mix, keys)
		if err != nil {
			return nil, err
		}
		if workload == wlQuorumCrash {
			// A unique value per write keeps the register history cheap to
			// check: every read names the write it saw.
			s.unique = (i + 1) * 10_000_000
		}
		streams[i] = s
	}
	return streams, nil
}

// poissonArrivals returns the due times (offsets from the start of the
// schedule) of a Poisson process of the given rate over span, conditioned
// on its count: exactly rate × span arrivals, placed independently and
// uniformly. Locally that is the same process — exponential gaps, bursts —
// but every seed offers the same number of operations, so the offered
// rate is not itself a source of spread.
func poissonArrivals(seed int64, id string, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(harness.DeriveSeed(seed, id)))
	out := make([]time.Duration, int(rate*span.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// digestDraws is how many leading draws of each stream the input digest
// covers.
const digestDraws = 2048

// inputDigest fingerprints the inputs a (workload, seed) pair generates:
// the leading draws of every client stream and, for the open loop, the
// arrival schedule. verify-virtual has no streams; its inputs are the
// derived campaign seeds.
func inputDigest(workload string, seed int64) (string, error) {
	h := fnv.New64a()
	if workload == wlVerifyVirtual {
		fmt.Fprintf(h, "%d/%d", fuzzSeed(seed), fuzzPerSecond)
		return fmt.Sprintf("%016x", h.Sum64()), nil
	}
	streams, err := clientStreams(workload, seed)
	if err != nil {
		return "", err
	}
	for _, s := range streams {
		for i := 0; i < digestDraws; i++ {
			r := s.next()
			fmt.Fprintf(h, "%s|%s|%v;", r.key, r.op, r.arg)
		}
	}
	if workload == wlAlg1OpenTCP {
		for _, due := range poissonArrivals(seed, arrivalsID, openRate, 2*time.Second) {
			fmt.Fprintf(h, "%d;", due)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

const arrivalsID = "bench/" + wlAlg1OpenTCP + "/arrivals"

func fuzzSeed(seed int64) int64 { return harness.DeriveSeed(seed, "bench/"+wlVerifyVirtual+"/fuzz") }
