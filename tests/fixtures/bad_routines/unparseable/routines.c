int:16 jobs;

void Begin() {
  jobs = jobs + ;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
