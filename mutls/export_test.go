package mutls

// PipelineUnkeyed is Pipeline on raw fork points, interning no body: no
// pay-off estimate is kept, so every stage forks whenever the protocol
// allows. BenchmarkPipelineToken uses it to price a token's fork/join with
// empty stages, which Pipeline itself would stop forking after 32 joins.
func PipelineUnkeyed(t *Thread, nTokens int, init uint64, opts PipelineOptions, stages ...Stage) uint64 {
	return pipeline(t, nTokens, init, opts, false, stages)
}

// CutStages is Pipeline's stage cut, a pure function TestCutStages tables.
var CutStages = cutStages
