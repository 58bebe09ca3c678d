package stream

import "sqlclean/internal/logmodel"

// Run exposes run to the tests of package stream_test.
func (s *Sharded) Run(l logmodel.Log) (logmodel.Log, error) { return s.run(l) }
