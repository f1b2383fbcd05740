package obs

// Deterministic trace/span ID derivation. IDs are pure hashes of what
// they identify — never counters — so the same seed produces the same
// IDs in whatever order spans are emitted. That is what makes trace
// exports byte-identical run to run.

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer (the same construction svc.Ring uses for vnode placement).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64a hashes a string (FNV-1a, 64-bit).
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// TraceIDFor derives the trace ID for one journey key (typically the
// account email plus a per-journey discriminator) under a run seed.
// Never zero — zero means untraced.
func TraceIDFor(seed int64, key string) uint64 {
	id := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ fnv64a(key))
	if id == 0 {
		id = 1
	}
	return id
}

// Sampled implements deterministic head sampling: whether the journey
// key is in the traced cohort at a 1-in-every rate. Keyed off the run
// seed — the same stream the simulation's randomness derives from — but
// consuming no draws from it, so enabling sampling perturbs no schedule.
// every <= 1 samples everything; every 0 or negative with no key match
// semantics is treated as sample-all for convenience.
func Sampled(seed int64, key string, every int) bool {
	if every <= 1 {
		return true
	}
	return TraceIDFor(seed, key)%uint64(every) == 0
}

// SpanID derives a span's ID from its position in the tree: the trace,
// the parent span, the span's name, and a caller-chosen salt (a
// per-journey sequence number for client spans, the begin instant in
// nanoseconds for server spans — whichever is deterministic and unique
// at the call site).
func SpanID(trace, parent uint64, name string, salt uint64) uint64 {
	id := mix64(trace ^ mix64(parent+0x632be59bd9b4e019) ^ fnv64a(name) ^ mix64(salt))
	if id == 0 {
		id = 1
	}
	return id
}
