package store

import "blockdag/internal/block"

// RecoveredBlocks lists the blocks Open recovered without taking the DAG,
// so tests can inspect a store's recovery repeatedly. Nil once TakeDAG
// has handed the DAG over.
func (s *Store) RecoveredBlocks() []*block.Block {
	if s.recovered == nil {
		return nil
	}
	return s.recovered.Blocks()
}
