// Command ocelotlint is the repo's vet tool: five static analyzers that
// enforce the dispatch, error-handling, buffer-ownership, consumer-recording
// and lock-order conventions the runtime relies on. Run it through the go
// command:
//
//	go build -o /tmp/ocelotlint ./cmd/ocelotlint
//	go vet -vettool=/tmp/ocelotlint ./...
//
// or standalone (it re-executes itself through go vet):
//
//	/tmp/ocelotlint ./...
package main

import "repro/internal/lint"

func main() { lint.Main() }
