package sql

// The fixtures of the package's own tests, for the differentials of the
// external test package (differential_test.go).
var (
	VentureCatalog     = ventureCatalog
	StarTestCatalog    = starTestCatalog
	StarIndexedCatalog = starIndexedCatalog
	ServingCatalog     = servingCatalog
	CorpusCatalog      = corpusCatalog
	CorpusSelects      = corpusSelects
	VentureQueries     = ventureQueries
	StarQueries        = starQueries
	AllServingShapes   = allServingShapes
)
