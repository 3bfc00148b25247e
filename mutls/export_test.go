package mutls

// PipelineUnkeyed is Pipeline on raw fork points, interning no body: no
// pay-off estimate is kept, so every stage forks whenever the protocol
// allows. BenchmarkPipelineToken uses it to price a token's fork/join with
// empty stages, which Pipeline itself would stop forking after 32 joins.
func PipelineUnkeyed(t *Thread, nTokens int, init uint64, opts PipelineOptions, stages ...Stage) uint64 {
	return pipeline(t, nTokens, init, opts, false, stages)
}

// CutStages is Pipeline's stage cut, a pure function TestCutStages tables:
// the inline times in, each group's first stage out.
func CutStages(weights []int64, width int) []int {
	ps := make([]pipeStage, len(weights))
	for s, w := range weights {
		ps[s].weight = w
	}
	cutStages(ps, width)
	var firsts []int
	for s := range ps {
		if ps[s].end >= 0 {
			firsts = append(firsts, s)
		}
	}
	return firsts
}
