// Package mapreduce is a from-scratch MapReduce engine over the dfs package,
// standing in for Hadoop (§2.1.3): a job runs one map task per input chunk
// in parallel, partitions intermediate pairs by key hash into R reduce
// tasks, runs the reducers in parallel, and writes part files back to the
// file system.
//
//	map(k1, v1)         → [k2, v2]
//	combine(v2, v2)     → v2          (associative; map side and reduce side)
//	reduce(k2, v2)      → v3
//
// The shuffle is typed and combined on the map side, like a Hadoop job with
// a combiner or Spark's reduceByKey: each map task folds its emits into one
// value per distinct key, and each reducer folds the tasks' partials per
// key in task order, so a job's output does not depend on which task
// finishes first.
package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"trafficcep/internal/dfs"
	"trafficcep/internal/telemetry"
)

// KeyValue is one output pair, as read back by ReadOutput.
type KeyValue struct {
	Key   string
	Value string
}

// Config specifies a job whose intermediate values have type V.
type Config[V any] struct {
	Name       string
	FS         *dfs.FS
	InputPaths []string // each chunk of each path becomes one map task
	OutputPath string   // part files are written as OutputPath/part-r-NNNNN
	// Map consumes one input record (a line, with its byte offset as k1)
	// and emits intermediate pairs.
	Map func(offset int64, line string, emit func(key string, v V)) error
	// Combine folds two values of one key into one. It must be
	// associative: values are folded in input order, but grouped per map
	// task first.
	Combine func(a, b V) V
	// Reduce appends the output value for one key's fully combined value
	// to dst; the engine writes it as one "key\tvalue" line.
	Reduce      func(dst []byte, key string, v V) ([]byte, error)
	NumReducers int // defaults to 1
	// Parallelism bounds concurrently running tasks; defaults to
	// GOMAXPROCS.
	Parallelism int
	// Telemetry, when non-nil, receives the job's phase timings as
	// mapreduce.<phase>_ns histograms plus cumulative record counters, so
	// batch runs share the registry with the streaming layer.
	Telemetry *telemetry.Registry
}

// Counters summarize a finished job.
type Counters struct {
	MapTasks     int
	ReduceTasks  int
	InputRecords int64
	MapOutputs   int64 // emits, before combining
	ReduceGroups int64 // distinct keys
	Outputs      int64
	// Phase wall-clock durations of this run.
	MapDuration    time.Duration
	ReduceDuration time.Duration
}

// Result is a finished job's output handle.
type Result struct {
	Counters  Counters
	PartFiles []string
}

// partial is one map task's combined value for one key.
type partial[V any] struct {
	key string
	v   V
}

// mapOutput is one map task's combined output, split by reducer.
type mapOutput[V any] struct {
	parts            [][]partial[V]
	records, outputs int64
	err              error
}

// Run executes a job synchronously.
func Run[V any](cfg Config[V]) (*Result, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("mapreduce: no file system")
	}
	if cfg.Map == nil || cfg.Combine == nil || cfg.Reduce == nil {
		return nil, fmt.Errorf("mapreduce: map, combine and reduce are required")
	}
	if len(cfg.InputPaths) == 0 {
		return nil, fmt.Errorf("mapreduce: no input paths")
	}
	if cfg.OutputPath == "" {
		return nil, fmt.Errorf("mapreduce: no output path")
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 1
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}

	// Plan map tasks: one per chunk.
	type mapTask struct {
		path  string
		chunk int
	}
	var tasks []mapTask
	for _, p := range cfg.InputPaths {
		chunks, err := cfg.FS.Chunks(p)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %w", err)
		}
		for _, c := range chunks {
			tasks = append(tasks, mapTask{path: p, chunk: c.Index})
		}
	}

	res := &Result{Counters: Counters{MapTasks: len(tasks), ReduceTasks: cfg.NumReducers}}

	// Map phase. Each task keeps its own output slot, so the reducers can
	// merge the tasks in index order whatever order they finished in.
	outs := make([]mapOutput[V], len(tasks))
	sem := make(chan struct{}, cfg.Parallelism)
	mapStart := time.Now()
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(out *mapOutput[V], t mapTask) {
			defer func() { <-sem; wg.Done() }()
			if err := runMapTask(cfg, t.path, t.chunk, out); err != nil {
				out.err = fmt.Errorf("mapreduce: map task %s#%d: %w", t.path, t.chunk, err)
			}
		}(&outs[i], t)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		res.Counters.InputRecords += outs[i].records
		res.Counters.MapOutputs += outs[i].outputs
	}
	res.Counters.MapDuration = time.Since(mapStart)

	// Reduce phase: fold each partition's partials per key, sort the
	// distinct keys, reduce, and write the part file. Reducers run in
	// parallel.
	reduceStart := time.Now()
	parts := make([]string, cfg.NumReducers)
	groups := make([]int64, cfg.NumReducers)
	errs := make([]error, cfg.NumReducers)
	for r := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer func() { <-sem; wg.Done() }()
			parts[r] = fmt.Sprintf("%s/part-r-%05d", cfg.OutputPath, r)
			groups[r], errs[r] = runReduceTask(cfg, outs, r, parts[r])
			if errs[r] != nil {
				errs[r] = fmt.Errorf("mapreduce: reduce task %d: %w", r, errs[r])
			}
		}(r)
	}
	wg.Wait()
	for r := range errs {
		if errs[r] != nil {
			return nil, errs[r]
		}
		res.Counters.ReduceGroups += groups[r]
	}
	res.Counters.Outputs = res.Counters.ReduceGroups
	res.Counters.ReduceDuration = time.Since(reduceStart)
	res.PartFiles = parts

	if reg := cfg.Telemetry; reg != nil {
		reg.Counter("mapreduce.jobs").Inc()
		reg.Counter("mapreduce.input_records").Add(uint64(res.Counters.InputRecords))
		reg.Counter("mapreduce.map_outputs").Add(uint64(res.Counters.MapOutputs))
		reg.Counter("mapreduce.outputs").Add(uint64(res.Counters.Outputs))
		reg.Histogram("mapreduce.map_phase_ns").ObserveDuration(res.Counters.MapDuration)
		reg.Histogram("mapreduce.reduce_phase_ns").ObserveDuration(res.Counters.ReduceDuration)
		reg.Histogram("mapreduce.job_ns").ObserveDuration(res.Counters.MapDuration + res.Counters.ReduceDuration)
	}
	return res, nil
}

// runMapTask feeds every non-blank line of one chunk to the mapper,
// combining its emits into one value per distinct key, then hashes each
// distinct key to its reducer once.
func runMapTask[V any](cfg Config[V], path string, chunkIdx int, out *mapOutput[V]) error {
	data, err := cfg.FS.ReadChunk(path, chunkIdx)
	if err != nil {
		return err
	}
	// One hash per emit: the map indexes the task's combined partials.
	index := map[string]int{}
	var combined []partial[V]
	emit := func(k string, v V) {
		out.outputs++
		if i, ok := index[k]; ok {
			combined[i].v = cfg.Combine(combined[i].v, v)
			return
		}
		index[k] = len(combined)
		combined = append(combined, partial[V]{key: k, v: v})
	}
	var offset int64
	for _, line := range strings.Split(string(data), "\n") {
		start := offset
		offset += int64(len(line)) + 1
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		out.records++
		if err := cfg.Map(start, line, emit); err != nil {
			return err
		}
	}
	out.parts = make([][]partial[V], cfg.NumReducers)
	for _, p := range combined {
		r := partitionOf(p.key, cfg.NumReducers)
		out.parts[r] = append(out.parts[r], p)
	}
	return nil
}

// runReduceTask folds partition r of every map task, in task order, into
// one value per key, and writes the keys in sorted order as the part file.
// It returns the number of distinct keys.
func runReduceTask[V any](cfg Config[V], outs []mapOutput[V], r int, part string) (int64, error) {
	acc := map[string]V{}
	for i := range outs {
		for _, p := range outs[i].parts[r] {
			if a, ok := acc[p.key]; ok {
				p.v = cfg.Combine(a, p.v)
			}
			acc[p.key] = p.v
		}
	}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = append(buf, k...)
		buf = append(buf, '\t')
		var err error
		if buf, err = cfg.Reduce(buf, k, acc[k]); err != nil {
			return 0, err
		}
		buf = append(buf, '\n')
	}
	if len(buf) == 0 {
		// Empty partitions still produce a (blank) part file, as Hadoop
		// does.
		buf = append(buf, '\n')
	}
	return int64(len(keys)), cfg.FS.Write(part, buf)
}

// partitionOf hashes a key to a reducer index with 32-bit FNV-1a, like
// Hadoop's default HashPartitioner.
func partitionOf(key string, numReducers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numReducers))
}

// ReadOutput reads all part files of a finished job back as pairs, in part
// order then line order.
func ReadOutput(fs *dfs.FS, outputPath string) ([]KeyValue, error) {
	var out []KeyValue
	for _, part := range fs.List(outputPath + "/part-r-") {
		data, err := fs.Read(part)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			k, v, found := strings.Cut(line, "\t")
			if !found {
				return nil, fmt.Errorf("mapreduce: malformed output line %q in %s", line, part)
			}
			out = append(out, KeyValue{Key: k, Value: v})
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
