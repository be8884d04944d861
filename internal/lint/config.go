package lint

// DefaultConfig is the repository's own analysis configuration: the
// package roles and the internal dependency DAG cmd/abmmvet enforces.
// Adding a module-internal import anywhere requires adding the edge
// here first — that is the point: dependency growth is a reviewed,
// deliberate act.
func DefaultConfig(dir string) Config {
	return Config{
		Dir: dir,
		ParallelPkgs: map[string]bool{
			"abmm/internal/parallel": true,
		},
		// The serving layer's acquire/release obligations, enforced by
		// resource-pairing: traces reach Finish, spans reach End, gate
		// slots call their release closures, plan claims return to the
		// registry, arena draws go back to their arena. Deferred
		// releases satisfy panic paths too.
		Pairs: []Pair{
			{Acquire: "abmm/internal/reqtrace.New", Err: -1,
				Releases: []string{"method:Finish"}, What: "trace"},
			{Acquire: "abmm/internal/reqtrace.NewRemote", Err: -1,
				Releases: []string{"method:Finish"}, What: "trace"},
			{Acquire: "(*abmm/internal/reqtrace.Trace).StartSpan", Err: -1,
				Releases: []string{"method:End"}, What: "span"},
			{Acquire: "(abmm/internal/reqtrace.Span).StartChild", Err: -1,
				Releases: []string{"method:End"}, What: "child span"},
			{Acquire: "(*abmm/internal/server.gate).acquire", Result: 0, Err: 2,
				Releases: []string{"call"}, What: "gate slot"},
			{Acquire: "(*abmm/internal/obs.PlanRegistry).Claim", Err: -1,
				Releases: []string{"pass:(*abmm/internal/obs.PlanRegistry).Release"}, What: "plan slot"},
			{Acquire: "(*abmm/internal/pool.Arena).Floats", Err: -1,
				Releases: []string{"pass:(*abmm/internal/pool.Arena).PutFloats"}, What: "arena floats"},
			{Acquire: "(*abmm/internal/pool.Arena).Mat", Err: -1,
				Releases: []string{"pass:(*abmm/internal/pool.Arena).PutMat"}, What: "arena matrix"},
			{Acquire: "(*abmm/internal/pool.Arena).Hdr", Err: -1,
				Releases: []string{"pass:(*abmm/internal/pool.Arena).PutHdr"}, What: "arena header"},
			{Acquire: "(*abmm/internal/pool.Arena).Mats", Err: -1,
				Releases: []string{"pass:(*abmm/internal/pool.Arena).PutMats"}, What: "arena matrix slice"},
		},
		DDPkgs: map[string]bool{
			"abmm/internal/dd": true,
		},
		AllowedImports: map[string][]string{
			"abmm": {
				"abmm/internal/algos",
				"abmm/internal/core",
				"abmm/internal/dd",
				"abmm/internal/kernel",
				"abmm/internal/matrix",
				"abmm/internal/obs",
				"abmm/internal/pool",
				"abmm/internal/scaling",
				"abmm/internal/stability",
			},
			"abmm/cmd/abmm": {"abmm"},
			"abmm/cmd/abmmd": {
				"abmm",
				"abmm/internal/server",
			},
			"abmm/cmd/abmmvet":     {"abmm/internal/lint"},
			"abmm/cmd/algoinfo":    {"abmm"},
			"abmm/cmd/benchgate":   {},
			"abmm/cmd/experiments": {"abmm/internal/experiments"},
			"abmm/cmd/loadgen": {
				"abmm",
				"abmm/internal/reqtrace",
				"abmm/internal/server",
			},
			"abmm/cmd/sparsify": {
				"abmm/internal/algos",
				"abmm/internal/exact",
				"abmm/internal/sparsify",
				"abmm/internal/stability",
			},
			"abmm/examples/customalgorithm": {
				"abmm",
				"abmm/internal/algos",
				"abmm/internal/bilinear",
				"abmm/internal/exact",
				"abmm/internal/sparsify",
				"abmm/internal/stability",
			},
			"abmm/examples/quickstart": {"abmm"},
			"abmm/examples/scaling":    {"abmm"},
			"abmm/examples/stability":  {"abmm"},
			"abmm/examples/tuning":     {"abmm"},
			"abmm/internal/algos": {
				"abmm/internal/basis",
				"abmm/internal/bilinear",
				"abmm/internal/exact",
				"abmm/internal/schedule",
			},
			"abmm/internal/basis": {
				"abmm/internal/exact",
				"abmm/internal/matrix",
				"abmm/internal/parallel",
				"abmm/internal/pool",
			},
			"abmm/internal/bilinear": {
				"abmm/internal/exact",
				"abmm/internal/kernel",
				"abmm/internal/matrix",
				"abmm/internal/obs",
				"abmm/internal/parallel",
				"abmm/internal/pool",
				"abmm/internal/schedule",
			},
			"abmm/internal/comm": {"abmm/internal/algos"},
			"abmm/internal/core": {
				"abmm/internal/algos",
				"abmm/internal/basis",
				"abmm/internal/bilinear",
				"abmm/internal/dd",
				"abmm/internal/kernel",
				"abmm/internal/matrix",
				"abmm/internal/obs",
				"abmm/internal/parallel",
				"abmm/internal/pool",
				"abmm/internal/reqtrace",
				"abmm/internal/stability",
			},
			// The CPU probe is a leaf: both packages with assembly routines
			// (kernel, matrix) read the one probe instead of each carrying
			// a copy.
			"abmm/internal/cpu": {},
			"abmm/internal/dd": {
				"abmm/internal/matrix",
				"abmm/internal/parallel",
			},
			"abmm/internal/dist": {
				"abmm/internal/bilinear",
				"abmm/internal/matrix",
				"abmm/internal/pool",
			},
			"abmm/internal/exact": {},
			"abmm/internal/experiments": {
				"abmm/internal/algos",
				"abmm/internal/comm",
				"abmm/internal/core",
				"abmm/internal/dd",
				"abmm/internal/dist",
				"abmm/internal/kernel",
				"abmm/internal/matrix",
				"abmm/internal/obs",
				"abmm/internal/parallel",
				"abmm/internal/pool",
				"abmm/internal/scaling",
				"abmm/internal/stability",
			},
			"abmm/internal/kernel": {
				"abmm/internal/cpu",
				"abmm/internal/matrix",
				"abmm/internal/obs",
				"abmm/internal/parallel",
				"abmm/internal/pool",
			},
			"abmm/internal/lint": {},
			"abmm/internal/matrix": {
				"abmm/internal/cpu",
				"abmm/internal/parallel",
			},
			"abmm/internal/obs":      {},
			"abmm/internal/parallel": {},
			"abmm/internal/pool":     {"abmm/internal/matrix"},
			"abmm/internal/reqtrace": {"abmm/internal/obs"},
			"abmm/internal/scaling":  {"abmm/internal/matrix"},
			"abmm/internal/schedule": {"abmm/internal/exact"},
			"abmm/internal/server": {
				"abmm",
				"abmm/internal/obs",
				"abmm/internal/pool",
				"abmm/internal/reqtrace",
			},
			"abmm/internal/sparsify": {
				"abmm/internal/algos",
				"abmm/internal/exact",
				"abmm/internal/stability",
			},
			"abmm/internal/stability": {
				"abmm/internal/algos",
				"abmm/internal/basis",
				"abmm/internal/exact",
			},
		},
	}
}
