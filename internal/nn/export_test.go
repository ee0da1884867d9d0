package nn

import "testing"

// InputTapModel is the model of graph_test.go whose branch taps the
// network input, for the external frame tests.
func InputTapModel(t *testing.T) *Model { return inputTapModel(t) }
