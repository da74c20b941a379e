enum Power {OFF, ON}; int:16 jobs;

void Begin() {
  jobs = jobs + 1;
  ON = 1;
}

void Finish() {
  SetFalse(BUSY);
}
