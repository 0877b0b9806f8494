package experiments

// The multi-client serving workload: one session server hosting the
// join-based crossfilter for N concurrent clients over the same base data,
// with the data-sized join build sides shared (instantiated once) and only
// selection state private. cmd/dvms-serve and the server tests build on it.

import "repro/internal/server"

// NewServeServer builds a session server over the join-based crossfilter
// with n sales rows ingested through the single-writer path.
func NewServeServer(n int, seed int64, cfg server.Config) (*server.Server, error) {
	srv, err := server.New(cfg, BuildIVMCrossfilterProgram())
	if err != nil {
		return nil, err
	}
	if err := srv.InsertRows("Sales", IVMSalesTuples(n, seed)); err != nil {
		return nil, err
	}
	return srv, nil
}
