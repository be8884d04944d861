// Package stale is registered with two DAG edges but imports only one:
// the unused edge is a finding at the package clause.
package stale // want import-allowlist

import "fixture/dep"

// Edge uses the one registered import the package has.
const Edge = dep.Answer
