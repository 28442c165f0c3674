package mapreduce_test

import (
	"fmt"
	"strconv"
	"strings"

	"trafficcep/internal/dfs"
	"trafficcep/internal/mapreduce"
)

// Example runs the canonical word count: map emits (word, 1), combine sums
// on the map side and the reduce side, reduce renders the count.
func Example() {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in/doc", "to be or not to be")
	res, err := mapreduce.Run(mapreduce.Config[int]{
		Name:       "wordcount",
		FS:         fs,
		InputPaths: []string{"in/doc"},
		OutputPath: "out/wc",
		Map: func(_ int64, line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(a, b int) int { return a + b },
		Reduce: func(dst []byte, _ string, n int) ([]byte, error) {
			return strconv.AppendInt(dst, int64(n), 10), nil
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	out, _ := mapreduce.ReadOutput(fs, "out/wc")
	for _, kv := range out {
		fmt.Printf("%s=%s\n", kv.Key, kv.Value)
	}
	fmt.Printf("map tasks: %d, groups: %d\n", res.Counters.MapTasks, res.Counters.ReduceGroups)
	// Output:
	// be=2
	// not=1
	// or=1
	// to=2
	// map tasks: 1, groups: 4
}
