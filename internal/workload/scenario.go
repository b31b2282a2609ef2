package workload

// TraceSpecs returns the trace-replay scenarios, in presentation order.
// Each is a complete Spec; callers may override Nodes, Duration or
// TotalRate before running (the CLI exposes flags for exactly that).
func TraceSpecs() []Spec {
	return []Spec{
		{
			// Steady-state skewed demand: the bread-and-butter hot-document
			// workload. Measures how far diffusion spreads a Zipf head.
			Name:       "zipf-steady",
			Nodes:      31,
			NumDocs:    64,
			Popularity: PopZipf,
			ZipfSkew:   1.0,
			TotalRate:  300,
			Duration:   40,
			Arrival:    ArrivalPoisson,
			Tunneling:  true,
		},
		{
			// A published document goes viral: rate ramps to 8× with all
			// surplus traffic on two documents, then subsides. Measures how
			// fast the wave re-balances and how bad p99 gets at the peak.
			Name:       "flash-crowd",
			Nodes:      31,
			NumDocs:    64,
			Popularity: PopZipf,
			ZipfSkew:   1.0,
			TotalRate:  200,
			Duration:   48,
			Arrival:    ArrivalPoisson,
			Tunneling:  true,
			Flash: &FlashCrowd{
				Start: 12, Ramp: 6, Hold: 12, Decay: 6,
				Factor: 8, HotDocs: 2,
			},
		},
		{
			// Adversarial skew: a Zipf head steep enough (s = 1.3) that the
			// top document alone carries ~a third of all traffic, plus a
			// single-document flash crowd riding on top — the workload
			// replication forests exist for. The deterministic run shows how
			// far diffusion alone stretches before the hot-key bench's
			// forest model takes over.
			Name:       "adversarial-skew",
			Nodes:      31,
			NumDocs:    64,
			Popularity: PopZipf,
			ZipfSkew:   1.3,
			TotalRate:  250,
			Duration:   48,
			Arrival:    ArrivalPoisson,
			Tunneling:  true,
			Flash: &FlashCrowd{
				Start: 12, Ramp: 6, Hold: 12, Decay: 6,
				Factor: 10, HotDocs: 1,
			},
		},
		{
			// Nodes fail and recover mid-run under bursty traffic. Requests
			// originating at a down node are lost; the rest of the tree
			// keeps serving around it.
			Name:        "churn",
			Nodes:       31,
			NumDocs:     64,
			Popularity:  PopZipf,
			ZipfSkew:    0.9,
			TotalRate:   250,
			Duration:    48,
			Arrival:     ArrivalBursty,
			BurstFactor: 4,
			ParetoAlpha: 1.5,
			Tunneling:   true,
			Churn:       &ChurnSpec{Events: 4, MeanDowntime: 8},
		},
		{
			// Byte-budgeted caches under a hot set wider than the aggregate
			// budget, with a diurnal shift that keeps rotating which
			// documents are hot — sustained eviction churn. Compares
			// eviction policies (heat-per-byte vs LRU vs GDSF) on hit rate,
			// origin offload and Jain fairness over the identical trace.
			Name:             "cache-pressure",
			Nodes:            31,
			NumDocs:          192,
			Popularity:       PopHotset,
			HotsetSize:       48,
			HotsetShare:      0.7,
			TotalRate:        300,
			Duration:         48,
			Arrival:          ArrivalPoisson,
			Tunneling:        true,
			CacheBudgetBytes: 10 * 4096, // ~10 docs per node vs a 48-doc hot set
			DocBytes:         4096,
			Diurnal:          &Diurnal{Period: 24, Amplitude: 0.4},
		},
		{
			// Large catalog, bounded caches: a hot set bigger than any one
			// cache forces eviction churn. Compares WebWave's demand-driven
			// placement against en-route LRU fill on the same trace.
			Name:        "multi-doc-lru",
			Nodes:       31,
			NumDocs:     256,
			Popularity:  PopHotset,
			HotsetSize:  24,
			HotsetShare: 0.8,
			TotalRate:   300,
			Duration:    40,
			Arrival:     ArrivalPoisson,
			CacheCap:    8,
			Tunneling:   true,
			Diurnal:     &Diurnal{Period: 40, Amplitude: 0.3},
		},
	}
}

// Lookup returns the named trace-replay spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range TraceSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
