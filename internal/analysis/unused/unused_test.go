package unused

import (
	"testing"

	"xkaapi/internal/analysis"
)

func TestAnalyzer(t *testing.T) {
	analysis.RunFixture(t, Analyzer, "u")
}
